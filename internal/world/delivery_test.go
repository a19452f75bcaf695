package world

// Oracle tests for the two indexes behind the world epoch: windowed
// delivery against the all-pairs loop it replaced, and the O(1)
// junction test against the linear scan. Both indexes may only change
// how candidates are found, never which pairs or junctions the exact
// predicates accept.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// rxPair is one delivery handed to a receiver: the frame's index in
// the air and the distance receive() is given.
type rxPair struct {
	frame int
	distM float64
}

// allPairs is the reference delivery loop: every frame on the air
// against every owned unit in ID order, with the exact range predicate
// and sender exclusion.
func allPairs(s *shard) map[uint32][]rxPair {
	got := make(map[uint32][]rxPair)
	for fi := range s.w.air {
		f := &s.w.air[fi]
		for _, u := range s.units {
			if u.ID == f.Src {
				continue
			}
			d := s.w.ring.dist(u.PosM, f.PosM)
			if d > s.w.opts.RadioRangeM {
				continue
			}
			got[u.ID] = append(got[u.ID], rxPair{fi, d})
		}
	}
	return got
}

// windowed collects what the production receptions hand each
// receiver, and how many window candidates it examined.
func windowed(s *shard) (map[uint32][]rxPair, uint64) {
	got := make(map[uint32][]rxPair)
	s.rangeChecks = 0
	s.receptions(func(u *Unit, f *Frame, distM float64) {
		fi := int(f.Seq) // the test numbers frames by air index
		got[u.ID] = append(got[u.ID], rxPair{fi, distM})
	})
	return got, s.rangeChecks
}

// firstDiff returns the lowest receiver whose sequences differ.
func firstDiff(want, got map[uint32][]rxPair) (uint32, bool) {
	var bad []uint32
	for id := range want {
		if !reflect.DeepEqual(want[id], got[id]) {
			bad = append(bad, id)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			bad = append(bad, id)
		}
	}
	if len(bad) == 0 {
		return 0, false
	}
	return slices.Min(bad), true
}

// testRing is one random ring population: unit positions and frames.
type testRing struct {
	lengthM, rangeM float64
	pos             []float64 // unit i+1's position
	air             []Frame
}

// randomRing draws a population that stresses the window's edges:
// units near the seam at 0/L, units exactly ±range from a frame,
// co-located units, and frames sent by units (sender exclusion) or
// from positions no unit holds.
func randomRing(rng *rand.Rand) testRing {
	tr := testRing{lengthM: []float64{1000, 5000, 7919.5}[rng.Intn(3)]}
	switch rng.Intn(4) {
	case 0:
		tr.rangeM = tr.lengthM / 2 // the window covers the whole ring
	case 1:
		tr.rangeM = tr.lengthM * (0.5 + rng.Float64()) // beyond half the ring
	default:
		tr.rangeM = tr.lengthM * (0.01 + 0.3*rng.Float64())
	}
	ring := newRing(tr.lengthM, 4)
	n := 1 + rng.Intn(60)
	for i := 0; i < n; i++ {
		var p float64
		switch rng.Intn(6) {
		case 0: // hugging the seam
			p = ring.wrap(tr.lengthM - rng.Float64()*tr.rangeM/4)
		case 1:
			p = rng.Float64() * tr.rangeM / 4
		case 2: // co-located with an earlier unit
			if i > 0 {
				p = tr.pos[rng.Intn(i)]
				break
			}
			fallthrough
		default:
			p = rng.Float64() * tr.lengthM
		}
		tr.pos = append(tr.pos, p)
	}
	frames := 1 + rng.Intn(20)
	for fi := 0; fi < frames; fi++ {
		f := Frame{Kind: FrameBeacon, Seq: uint32(fi)}
		if rng.Intn(4) > 0 { // sent by a unit, from its position
			f.Src = uint32(1 + rng.Intn(n))
			f.PosM = tr.pos[f.Src-1]
		} else {
			f.Src = uint32(n + 1 + rng.Intn(5))
			f.PosM = rng.Float64() * tr.lengthM
		}
		tr.air = append(tr.air, f)
	}
	// Put some units exactly at ±range of a frame, across the seam
	// when the frame sits near it.
	for k := 0; k < 3 && len(tr.pos) > 1; k++ {
		f := tr.air[rng.Intn(len(tr.air))]
		off := tr.rangeM
		if rng.Intn(2) == 0 {
			off = -off
		}
		tr.pos[rng.Intn(len(tr.pos))] = ring.wrap(f.PosM + off)
	}
	return tr
}

// build splits the population over nShards shards by home arc, the
// way the world assigns units.
func (tr testRing) build(nShards int) *World {
	w := &World{
		opts: Options{RadioRangeM: tr.rangeM},
		ring: newRing(tr.lengthM, 4),
		air:  tr.air,
	}
	for i := 0; i < nShards; i++ {
		w.shards = append(w.shards, &shard{w: w, idx: i})
	}
	// Add units in a scrambled order: ownership must not depend on it.
	ids := rand.New(rand.NewSource(int64(len(tr.pos)))).Perm(len(tr.pos))
	for _, i := range ids {
		u := &Unit{ID: uint32(i + 1), PosM: tr.pos[i]}
		w.assign(u)
	}
	return w
}

// TestWindowedDeliveryMatchesAllPairs is the delivery index's oracle:
// on random rings, every receiver is handed the identical ordered
// (frame, distance) sequence the all-pairs loop gives it, and the
// candidate count is the same at any partition.
func TestWindowedDeliveryMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		tr := randomRing(rng)
		var refChecks uint64
		for _, nShards := range []int{1, 3, 4} {
			w := tr.build(nShards)
			var checks uint64
			for _, s := range w.shards {
				want := allPairs(s)
				got, c := windowed(s)
				checks += c
				if id, ok := firstDiff(want, got); ok {
					t.Fatalf("trial %d (L=%v R=%v shards=%d shard %d): receiver %d diverged\nwant %v\ngot  %v",
						trial, tr.lengthM, tr.rangeM, nShards, s.idx, id, want[id], got[id])
				}
				// Move every unit a little (one wrapping across the
				// seam) and deliver again: the in-place re-sort must
				// keep the index exact.
				for i, u := range s.units {
					u.PosM = w.ring.wrap(u.PosM + float64(i%3)*tr.rangeM/50)
				}
				if len(s.units) > 0 {
					s.units[0].PosM = w.ring.wrap(s.units[0].PosM + tr.lengthM/2)
				}
				got, _ = windowed(s)
				if id, ok := firstDiff(allPairs(s), got); ok {
					t.Fatalf("trial %d shards=%d shard %d: receiver %d diverged after an in-place re-sort", trial, nShards, s.idx, id)
				}
			}
			if nShards == 1 {
				refChecks = checks
			} else if checks != refChecks {
				t.Fatalf("trial %d: %d range checks at %d shards, %d at one", trial, checks, nShards, refChecks)
			}
		}
	}
}

// TestWindowedDeliveryEdges pins the named edge cases on a fixed
// ring: units at exactly ±range (inside, across the seam), one just
// beyond, co-located units, and the sender's own exclusion.
func TestWindowedDeliveryEdges(t *testing.T) {
	const l, r = 1000.0, 100.0
	tr := testRing{
		lengthM: l, rangeM: r,
		pos: []float64{
			990,     // 1: the sender, 10 m before the seam
			90,      // 2: exactly +range across the seam
			890,     // 3: exactly −range
			90.0001, // 4: just beyond +range
			990,     // 5: co-located with the sender
			500,     // 6: far away
		},
		air: []Frame{{Kind: FrameBeacon, Src: 1, PosM: 990}},
	}
	w := tr.build(1)
	got, _ := windowed(w.shards[0])
	want := map[uint32][]rxPair{2: {{0, 100}}, 3: {{0, 100}}, 5: {{0, 0}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("edge deliveries:\nwant %v\ngot  %v", want, got)
	}
}

// crossedJunctionScan is the reference junction test: the linear scan
// over every junction.
func crossedJunctionScan(r ring, oldPos, newPos float64) int {
	if r.junctions <= 0 {
		return -1
	}
	travelled := r.forward(oldPos, newPos)
	for j := 0; j < r.junctions; j++ {
		if d := r.forward(oldPos, r.junctionPos(j)); d > 0 && d <= travelled {
			return j
		}
	}
	return -1
}

// TestCrossedJunctionMatchesScan is the junction shortcut's oracle:
// on rings with few and many junctions, for steps from zero to several
// junction spacings and for positions exactly on junctions, the O(1)
// test returns what the linear scan returns.
func TestCrossedJunctionMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, l := range []float64{5000, 1_550_000, 7919.5} {
		for _, j := range []int{0, 1, 2, 3, 4, 7, 100} {
			r := newRing(l, j)
			spacing := l
			if j > 0 {
				spacing = l / float64(j)
			}
			// Steps from zero through just under one spacing (the
			// shortcut's limit) to several spacings (the scan).
			steps := []float64{0, 1e-9, 3, spacing / 2, spacing * (1 - 1e-6), spacing * (1 - 2e-9),
				spacing * (1 - 1e-12), spacing, spacing * (1 + 1e-12), 1.5 * spacing, 2 * spacing, 3.7 * spacing}
			check := func(oldPos, newPos float64) {
				t.Helper()
				if got, want := r.crossedJunction(oldPos, newPos), crossedJunctionScan(r, oldPos, newPos); got != want {
					t.Fatalf("L=%v junctions=%d: crossedJunction(%v, %v) = %d, scan says %d", l, j, oldPos, newPos, got, want)
				}
			}
			for trial := 0; trial < 2000; trial++ {
				oldPos := rng.Float64() * l
				if trial%4 == 0 && j > 0 { // start exactly on a junction
					oldPos = r.junctionPos(rng.Intn(j))
				}
				step := steps[trial%len(steps)]
				if trial%5 == 0 {
					step = rng.Float64() * spacing
				}
				check(oldPos, r.wrap(oldPos+step))
				if j > 0 { // end exactly on a junction
					jp := r.junctionPos(rng.Intn(j))
					check(r.wrap(jp-step), jp)
				}
			}
		}
	}
}
