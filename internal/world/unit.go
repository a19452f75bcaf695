package world

import "platoonsec/internal/obs/span"

// Unit is one road entity: a platoon (leader plus members), a free
// vehicle seeking admission (a platoon of one), or a Sybil ghost
// identity. Everything a unit will ever do — mobility, beacon timing,
// loss draws, lifecycle choices — is a pure function of the exported
// state below plus the world seed, which is why the cross-shard
// handoff codec can move a unit between kernels without changing any
// future observable.
type Unit struct {
	// ID is the unit (platoon) identifier, allocated monotonically by
	// the manager and never reused.
	ID uint32
	// LeaderVeh is the leader's vehicle identity.
	LeaderVeh uint32
	// Members are the member vehicle identities behind the leader,
	// front to back. A free vehicle has none.
	Members []uint32
	// Ghost marks a Sybil pseudo-vehicle: it transmits and joins like
	// a free vehicle but is never counted as a real roster vehicle.
	Ghost bool
	// HostID is the platoon a ghost is currently admitted to (0 =
	// none).
	HostID uint32
	// Avoid is the platoon that last ejected this ghost; the ghost
	// hops to a different one.
	Avoid uint32
	// Hops counts ghost re-admissions after an ejection — the
	// cross-platoon Sybil-hop observable.
	Hops uint32

	// PosM is the leader's ring coordinate; SpeedMS its speed;
	// TargetMS the speed it relaxes toward.
	PosM     float64
	SpeedMS  float64
	TargetMS float64
	// GapM is the desired intra-platoon spacing; ExtraGapM is the
	// transient surplus opened by a merge or join, decaying to zero
	// (the min-gap restore phase).
	GapM      float64
	ExtraGapM float64

	// AdmittedAtNS is when a ghost was admitted to HostID.
	AdmittedAtNS int64
	// LastSpan is the most recent lifecycle span affecting this unit,
	// threaded as the causal parent of its next lifecycle action so
	// hop chains (ejected from A → joined B) stay connected.
	LastSpan span.ID

	// Seq numbers this unit's transmitted frames; Draws counts dice
	// draws; IntentSeq orders this unit's barrier intents. All three
	// advance in the unit's own canonical order, independent of
	// sharding.
	Seq       uint32
	Draws     uint64
	IntentSeq uint64

	// BeaconAtNS is the next beacon time; NextActAtNS throttles
	// lifecycle initiatives (join retries, merge proposals).
	BeaconAtNS  int64
	NextActAtNS int64

	// PendingJoin is the unit we have an unanswered join request with
	// (0 = none); PendingAtNS is when it was sent.
	PendingJoin uint32
	PendingAtNS int64

	// Ahead caches the nearest platoon heard beaconing ahead: who,
	// how big, how far, how fast, and when we heard it. Refreshed by
	// beacons; part of the handoff record so a migration cannot blind
	// a unit that a same-shard neighbour would still see.
	AheadID      uint32
	AheadSize    uint16
	AheadDistM   float64
	AheadSpeedMS float64
	AheadAtNS    int64

	// cruiseMS caches World.cruiseFor, derived from the seed, ID and
	// Ghost. It is not on the wire: a decoded unit recomputes it on
	// first use.
	cruiseMS float64
}

// Size returns the number of vehicle identities the unit carries
// (leader plus members; 1 for free vehicles and ghosts).
func (u *Unit) Size() int { return 1 + len(u.Members) }

// LengthM returns the unit's physical extent from leader front to
// tail rear.
func (u *Unit) LengthM(vehLenM float64) float64 {
	n := float64(u.Size())
	return n*vehLenM + (n-1)*(u.GapM+u.ExtraGapM)
}

// draw consumes one counter-keyed dice draw.
func (u *Unit) draw(seed int64) float64 {
	u.Draws++
	return dice(seed, u.ID, u.Draws)
}

// nextSeq numbers the unit's next transmitted frame.
func (u *Unit) nextSeq() uint32 {
	u.Seq++
	return u.Seq
}

// nextIntent orders the unit's next barrier intent.
func (u *Unit) nextIntent() uint64 {
	u.IntentSeq++
	return u.IntentSeq
}
