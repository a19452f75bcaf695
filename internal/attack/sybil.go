package attack

import (
	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/sim"
)

// Sybil creates ghost vehicles from a single physical transmitter
// (§V-A2): each ghost runs the join protocol against the platoon leader
// and, once admitted, beacons a fabricated position slotted in behind
// the platoon tail. The leader's roster fills with vehicles that do not
// exist — "the platoon leader [thinks] there are more vehicles part of
// the platoon than there really are" — which blocks genuine joiners and
// leaves phantom gaps.
type Sybil struct {
	// GhostIDs are the fabricated vehicle identities.
	GhostIDs []uint32
	// PlatoonID is the target platoon.
	PlatoonID uint32
	// JoinPeriod is the interval between ghost join attempts.
	JoinPeriod sim.Time
	// BeaconPeriod is the ghosts' CAM interval once admitted.
	BeaconPeriod sim.Time
	// GhostSpacing is the claimed bumper-to-bumper gap between ghosts.
	GhostSpacing float64

	radio *Radio
	k     *sim.Kernel

	// seen tracks the latest beacon per genuine platoon vehicle; the
	// tail is recomputed from fresh entries so the ghosts keep pace
	// with the moving platoon.
	seen map[uint32]tailObs

	phase   map[uint32]int // 0 idle, 1 requested, 2 admitted
	seq     uint32
	tickers []*sim.Ticker
	started bool

	// Decode scratch for onRx.
	rxEnv message.Envelope
	rxB   message.Beacon
	rxM   message.Maneuver

	// Admitted counts ghosts the leader accepted into the roster.
	Admitted int
}

var _ Attack = (*Sybil)(nil)

// NewSybil builds a Sybil attacker with n ghosts whose IDs start at
// firstGhostID.
func NewSybil(k *sim.Kernel, radio *Radio, platoonID uint32, firstGhostID uint32, n int) *Sybil {
	s := &Sybil{
		PlatoonID:    platoonID,
		JoinPeriod:   2 * sim.Second,
		BeaconPeriod: 100 * sim.Millisecond,
		GhostSpacing: 20,
		radio:        radio,
		k:            k,
		phase:        make(map[uint32]int),
		seen:         make(map[uint32]tailObs),
	}
	for i := 0; i < n; i++ {
		s.GhostIDs = append(s.GhostIDs, firstGhostID+uint32(i))
	}
	return s
}

// Name implements Attack.
func (s *Sybil) Name() string { return "sybil" }

// Start implements Attack.
func (s *Sybil) Start() error {
	if s.started {
		return errAlreadyStarted("sybil")
	}
	if err := s.radio.Start(s.onRx); err != nil {
		return err
	}
	s.started = true
	s.tickers = append(s.tickers,
		s.k.Every(s.k.Now()+s.JoinPeriod, s.JoinPeriod, "attack.sybil.join", s.pumpJoins),
		s.k.Every(s.k.Now()+s.BeaconPeriod, s.BeaconPeriod, "attack.sybil.beacon", s.beaconGhosts),
	)
	return nil
}

// Stop implements Attack.
func (s *Sybil) Stop() {
	for _, t := range s.tickers {
		t.Stop()
	}
	s.tickers = nil
	s.radio.Stop()
	s.started = false
}

func (s *Sybil) nextSeq() uint32 {
	s.seq++
	return s.seq
}

// onRx tracks the platoon tail and reacts to join responses.
//
//platoonvet:taint-source -- ghost replies crafted from overheard platoon state (Table II sybil)
func (s *Sybil) onRx(rx mac.Rx) {
	env := &s.rxEnv
	if err := message.DecodeEnvelope(rx.Payload, env); err != nil {
		return
	}
	kind, err := env.Kind()
	if err != nil {
		return
	}
	switch kind {
	case message.KindBeacon:
		b := &s.rxB
		if err := message.DecodeBeacon(env.Payload, b); err != nil || b.PlatoonID != s.PlatoonID {
			return
		}
		if s.isGhost(b.VehicleID) {
			return
		}
		s.seen[b.VehicleID] = tailObs{pos: b.Position, speed: b.Speed, at: s.k.Now()}
	case message.KindManeuver:
		m := &s.rxM
		if err := message.DecodeManeuver(env.Payload, m); err != nil || m.PlatoonID != s.PlatoonID {
			return
		}
		if m.Type == message.ManeuverJoinAccept && s.isGhost(m.TargetID) {
			if s.phase[m.TargetID] == 1 {
				s.phase[m.TargetID] = 2
				s.Admitted++
				// Complete immediately: no physical approach needed for
				// a vehicle that does not exist.
				//platoonvet:alloc-ok one forged completion per ghost join; maneuvers are per-protocol-step, not per frame
				mc := &message.Maneuver{
					Type:       message.ManeuverJoinComplete,
					VehicleID:  m.TargetID,
					PlatoonID:  s.PlatoonID,
					TargetID:   m.VehicleID,
					Seq:        s.nextSeq(),
					TimestampN: int64(s.k.Now()),
				}
				s.radio.SendEnvelope(Forge(m.TargetID, mc.Marshal()))
			}
		}
	}
}

// pumpJoins sends a join request for the next idle ghost; once every
// ghost has requested, it re-requests ghosts whose accept never came
// back (broadcast frames are lossy and the attacker, like any joiner,
// retries).
//
//platoonvet:taint-source -- ghost join requests fabricating non-existent vehicles (Table II sybil)
func (s *Sybil) pumpJoins() {
	for _, phase := range []int{0, 1} {
		for _, id := range s.GhostIDs {
			if s.phase[id] != phase {
				continue
			}
			s.phase[id] = 1
			//platoonvet:alloc-ok one forged request per ghost join attempt; Hz-scale attack rate
			m := &message.Maneuver{
				Type:       message.ManeuverJoinRequest,
				VehicleID:  id,
				PlatoonID:  s.PlatoonID,
				Seq:        s.nextSeq(),
				TimestampN: int64(s.k.Now()),
			}
			s.radio.SendEnvelope(Forge(id, m.Marshal()))
			return
		}
	}
}

// tailObs is one observed genuine-vehicle state.
type tailObs struct {
	pos, speed float64
	at         sim.Time
}

// tail returns the rearmost *fresh* genuine platoon position.
func (s *Sybil) tail() (tailObs, bool) {
	now := s.k.Now()
	var best tailObs
	found := false
	for _, obs := range s.seen {
		if now-obs.at > sim.Second {
			continue
		}
		if !found || obs.pos < best.pos {
			best = obs
			found = true
		}
	}
	return best, found
}

// beaconGhosts transmits CAMs for every ghost, fabricating positions
// strung out behind the genuine tail. Ghosts beacon from the start —
// before requesting to join — both because that is what a competent
// Sybil attacker does (a vehicle that appears out of nowhere and
// immediately asks to join is trivially suspicious) and because it
// defeats join gates that merely require observed presence.
//
//platoonvet:taint-source -- fabricated ghost beacons sustaining the fake vehicles (Table II sybil)
func (s *Sybil) beaconGhosts() {
	tail, ok := s.tail()
	if !ok {
		return
	}
	for slot, id := range s.GhostIDs {
		slot++ // 1-based spacing behind the tail
		//platoonvet:alloc-ok one forged beacon per ghost per beacon period; Hz-scale attack rate
		b := &message.Beacon{
			VehicleID:  id,
			PlatoonID:  s.PlatoonID,
			Seq:        s.nextSeq(),
			TimestampN: int64(s.k.Now()),
			Role:       message.RoleMember,
			Position:   tail.pos - float64(slot)*s.GhostSpacing,
			Speed:      tail.speed,
			Accel:      0,
		}
		s.radio.SendEnvelope(Forge(id, b.Marshal()))
	}
}

func (s *Sybil) isGhost(id uint32) bool {
	for _, g := range s.GhostIDs {
		if g == id {
			return true
		}
	}
	return false
}
