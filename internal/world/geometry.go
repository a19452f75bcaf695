package world

// Ring-road geometry and the counter-keyed randomness that makes the
// world partition-invariant.
//
// The highway is a ring of LengthM metres with evenly spaced
// junctions. Positions are scalar ring coordinates in [0, LengthM);
// vehicles only move forward. A ring (rather than an open segment)
// keeps the vehicle population closed for the whole run, so roster
// conservation is a checkable invariant instead of a boundary
// condition.

// ring is the road geometry shared by every shard.
type ring struct {
	lengthM   float64
	junctions int
	perM      float64 // junctions / lengthM: junction spacings per metre
}

// newRing builds the geometry of a ring with evenly spaced junctions.
func newRing(lengthM float64, junctions int) ring {
	return ring{lengthM: lengthM, junctions: junctions, perM: float64(junctions) / lengthM}
}

// wrap maps any forward position back onto [0, lengthM).
func (r ring) wrap(pos float64) float64 {
	for pos >= r.lengthM {
		pos -= r.lengthM
	}
	for pos < 0 {
		pos += r.lengthM
	}
	return pos
}

// forward returns the forward (driving-direction) distance from a to
// b, in [0, lengthM).
func (r ring) forward(a, b float64) float64 {
	d := b - a
	if d < 0 {
		d += r.lengthM
	}
	return d
}

// dist returns the shortest ring distance between a and b.
func (r ring) dist(a, b float64) float64 {
	d := r.forward(a, b)
	if d > r.lengthM/2 {
		d = r.lengthM - d
	}
	return d
}

// junctionPos returns the position of junction j.
func (r ring) junctionPos(j int) float64 {
	if r.junctions <= 0 {
		return 0
	}
	return float64(j) * r.lengthM / float64(r.junctions)
}

// crossedJunction returns the lowest-index junction passed when
// moving forward from oldPos to newPos — one whose forward distance
// from oldPos is in (0, travelled] — or -1. A step shorter than the
// junction spacing passes at most one junction: the one at or just
// below newPos, or one that rounding puts just above it. Only those
// two are tested, with the scan's exact predicate; a step of about
// one spacing or more falls back to the full scan.
func (r ring) crossedJunction(oldPos, newPos float64) int {
	if r.junctions <= 0 {
		return -1
	}
	// Measured in junction spacings, junction j sits at j and the
	// step of length `step` ends at x.
	travelled := r.forward(oldPos, newPos)
	step, x := travelled*r.perM, newPos*r.perM
	if step >= 1-roundingSlack {
		return r.scanJunctions(oldPos, travelled)
	}
	// Most steps end further past junction k than they travelled and
	// well short of junction k+1: nothing crossed.
	k := int(x)
	if frac := x - float64(k); frac > step+roundingSlack && frac < 1-roundingSlack {
		return -1
	}
	for _, j := range [2]int{k % r.junctions, (k + 1) % r.junctions} {
		if r.passes(oldPos, travelled, j) {
			return j
		}
	}
	return -1
}

// roundingSlack is a relative margin far above any float rounding in
// the ring arithmetic: index searches widen by it, so a shortcut never
// decides a case the exact predicate would decide differently.
const roundingSlack = 1e-9

// scanJunctions is crossedJunction over every junction.
func (r ring) scanJunctions(oldPos, travelled float64) int {
	for j := 0; j < r.junctions; j++ {
		if r.passes(oldPos, travelled, j) {
			return j
		}
	}
	return -1
}

// passes reports whether junction j lies in (oldPos, oldPos+travelled].
func (r ring) passes(oldPos, travelled float64, j int) bool {
	d := r.forward(oldPos, r.junctionPos(j))
	return d > 0 && d <= travelled
}

// FNV-1a 64-bit parameters, matching span.Derive's choice: a tiny,
// stable, dependency-free hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// dice is the world's randomness: a pure function of (seed, entity,
// draw index) onto [0, 1). Unlike a sequential sim.Stream, a
// counter-keyed draw has no generator state to carry or replay, so a
// unit migrating between shard kernels keeps its exact future — the
// property the shard-invariance contract rests on (DESIGN.md §10).
// Each unit draws with its own ID and a monotonic per-unit counter,
// so draw order within a unit is canonical and draws never interleave
// across units.
func dice(seed int64, id uint32, n uint64) float64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(seed), 8)
	h = fnvMix(h, uint64(id), 4)
	h = fnvMix(h, n, 8)
	// Top 53 bits → uniform float64 in [0, 1).
	return float64(h>>11) / (1 << 53)
}

// fnvMix folds the low `bytes` bytes of v into the running hash.
func fnvMix(h, v uint64, bytes int) uint64 {
	for i := 0; i < bytes; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}
