package defense

import (
	"errors"
	"fmt"
	"math"

	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/platoon"
	"platoonsec/internal/sim"
	"platoonsec/internal/vehicle"
)

// ErrUnseenJoiner is wrapped by every join-gate drop.
var ErrUnseenJoiner = errors.New("defense: join request from unseen vehicle")

// JoinGate is the leader-side DoS guard for the join protocol (§V-D):
// a join request is only considered if the requesting vehicle has been
// *observed* — it must have beaconed recently from a position near the
// platoon. A flood of fabricated IDs (which transmit join requests but
// no plausible presence) dies here without touching the pending-join
// table, while a genuine approaching truck, which beacons continuously,
// passes.
//
// This is a control-algorithm defense in the paper's sense (§VI-A3): it
// needs no cryptography, only cross-referencing the request stream
// against observed behaviour.
type JoinGate struct {
	// Self anchors the proximity check.
	Self *vehicle.Vehicle
	// FreshWindow is how recent the requester's last beacon must be.
	FreshWindow sim.Time
	// MaxDistance is how far from this vehicle a joiner may claim to
	// be.
	MaxDistance float64
	// MinBeacons is how many beacons the requester must have sent
	// first (raises the flood's per-identity cost).
	MinBeacons int

	seen map[uint32]presence
	rx   message.Beacon   // decode scratch for the beacon under Check
	mv   message.Maneuver // decode scratch for the maneuver under Check

	// Dropped counts gated join requests.
	Dropped uint64
}

type presence struct {
	pos     float64
	at      sim.Time
	beacons int
}

var _ platoon.Filter = (*JoinGate)(nil)

// NewJoinGate builds a gate anchored to self.
func NewJoinGate(self *vehicle.Vehicle) *JoinGate {
	return &JoinGate{
		Self:        self,
		FreshWindow: 2 * sim.Second,
		MaxDistance: 300,
		MinBeacons:  5,
		seen:        make(map[uint32]presence),
	}
}

// Name implements platoon.Filter.
func (g *JoinGate) Name() string { return "join-gate" }

// Check implements platoon.Filter.
//
//platoonvet:sanitizer -- join-rate admission gate: membership claims it passes feed the roster
//platoonvet:taint-source params -- filters inspect envelopes the signature check may not have vouched for in open baselines
func (g *JoinGate) Check(env *message.Envelope, _ mac.Rx, now sim.Time) error {
	kind, err := env.Kind()
	if err != nil {
		return nil
	}
	switch kind {
	case message.KindBeacon:
		b := &g.rx
		if err := message.DecodeBeacon(env.Payload, b); err != nil {
			return nil
		}
		p := g.seen[b.VehicleID]
		p.pos = b.Position
		p.at = now
		p.beacons++
		g.seen[b.VehicleID] = p
		return nil
	case message.KindManeuver:
		m := &g.mv
		if err := message.DecodeManeuver(env.Payload, m); err != nil {
			return nil
		}
		if m.Type != message.ManeuverJoinRequest && m.Type != message.ManeuverJoinComplete {
			return nil
		}
		p, ok := g.seen[m.VehicleID]
		if !ok || now-p.at > g.FreshWindow || p.beacons < g.MinBeacons {
			g.Dropped++
			return fmt.Errorf("%w: %d (beacons=%d)", ErrUnseenJoiner, m.VehicleID, p.beacons)
		}
		if math.Abs(p.pos-g.Self.State().Position) > g.MaxDistance {
			g.Dropped++
			return fmt.Errorf("%w: %d claims position %.0f m away", ErrUnseenJoiner,
				m.VehicleID, math.Abs(p.pos-g.Self.State().Position))
		}
		return nil
	default:
		return nil
	}
}
