package defense

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/phy"
	"platoonsec/internal/platoon"
	"platoonsec/internal/sim"
)

// ErrNoVLCConfirmation is wrapped by every hybrid-filter maneuver drop.
var ErrNoVLCConfirmation = errors.New("defense: maneuver lacks VLC confirmation")

// ErrVLCMismatch is wrapped when an RF beacon contradicts the state
// observed over the optical channel.
var ErrVLCMismatch = errors.New("defense: RF beacon contradicts VLC observation")

// HybridChain is the SP-VLC hybrid-communication defense (Ucar et al.
// [2], §VI-A4): platoon neighbours exchange state over a visible-light
// side channel that RF jamming cannot touch. Each optical period the
// chain:
//
//   - delivers every vehicle's state beacon to the vehicle behind it
//     (taillight → camera), and
//   - relays the leader's beacon hop by hop down the string,
//
// with per-hop geometric loss from phy.VLCLink. Under RF jamming the
// platoon therefore keeps fresh predecessor/leader state and does not
// disband — the E7 experiment.
//
// The chain also mirrors formation-changing maneuvers onto the optical
// channel; HybridFilter then refuses RF maneuvers that never appeared
// there, which kills RF-only forgeries ("each member of the platoon
// must receive both visible light transmission and an 802.11p
// transmission to carry out any action").
type HybridChain struct {
	// Period is the optical exchange interval.
	Period sim.Time

	k       *sim.Kernel
	link    *phy.VLCLink
	agents  []*platoon.Agent
	filters []*HybridFilter
	ticker  *sim.Ticker

	// Delivered counts successful optical hops; Broken counts hop
	// failures (range or ambient outage).
	Delivered, Broken uint64
}

// NewHybridChain builds an empty chain over the given optical link.
func NewHybridChain(k *sim.Kernel, link *phy.VLCLink) *HybridChain {
	return &HybridChain{Period: 100 * sim.Millisecond, k: k, link: link}
}

// Append adds an agent to the back of the chain. filter may be nil if
// the vehicle does not enforce VLC confirmation.
func (c *HybridChain) Append(a *platoon.Agent, f *HybridFilter) {
	c.agents = append(c.agents, a)
	c.filters = append(c.filters, f)
}

// Start begins the optical exchange.
func (c *HybridChain) Start() {
	if c.ticker != nil {
		return
	}
	c.ticker = c.k.Every(c.k.Now()+c.Period, c.Period, "defense.vlc", c.tick)
}

// Stop halts the optical exchange.
func (c *HybridChain) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

// beaconOf synthesizes the optical state report for one agent from its
// physical state. VLC content is inherently authentic: it comes from
// the taillights of the very vehicle the camera is looking at.
func (c *HybridChain) beaconOf(a *platoon.Agent, now sim.Time) message.Beacon {
	st := a.Vehicle().State()
	b := message.Beacon{
		VehicleID:  a.ID(),
		Seq:        0, // optical channel carries no RF sequence space
		TimestampN: int64(now),
		Role:       a.Role(),
		Position:   st.Position,
		Speed:      st.Speed,
		Accel:      st.Accel,
	}
	if a.Role() == message.RoleLeader {
		b.LeaderSpeed = st.Speed
		b.LeaderAccel = st.Accel
	}
	return b
}

func (c *HybridChain) tick() {
	if len(c.agents) < 2 {
		return
	}
	now := c.k.Now()
	carry := c.beaconOf(c.agents[0], now) // leader state, relayed down
	for i := 1; i < len(c.agents); i++ {
		front, rear := c.agents[i-1], c.agents[i]
		gap := rear.Vehicle().Gap(front.Vehicle())
		if !c.link.Deliver(gap) {
			c.Broken++
			return // line-of-sight chain: a broken hop stops the relay
		}
		c.Delivered++
		fb := c.beaconOf(front, now)
		rear.InjectBeacon(fb, now)
		rear.InjectBeacon(carry, now)
		if f := c.filters[i]; f != nil {
			f.AddOptical(fb, now)
			f.AddOptical(carry, now)
		}
	}
}

// Mirror is the platoon.WithTxTap hook: install it on every chain
// member so their formation-changing maneuvers gain an optical copy.
// Non-maneuver payloads are ignored. Per-member optical delivery is
// drawn independently against the member's adjacent gap — a
// simplification of hop-by-hop relay that preserves the security
// property (RF-only forgeries never gain a VLC copy, because forgers
// are not in anyone's line of sight).
func (c *HybridChain) Mirror(payload []byte) {
	if kind, err := message.PeekKind(payload); err != nil || kind != message.KindManeuver {
		return
	}
	digest := sha256.Sum256(payload)
	now := c.k.Now()
	for i, f := range c.filters {
		if f == nil {
			continue
		}
		gap := 10.0
		if i > 0 {
			gap = c.agents[i].Vehicle().Gap(c.agents[i-1].Vehicle())
		}
		if c.link.Deliver(clampGap(gap)) {
			f.Add(digest, now)
		}
	}
}

// clampGap keeps pathological geometries inside the optical envelope so
// the mirroring draw stays meaningful.
func clampGap(g float64) float64 {
	if g <= 0 {
		return 0.5
	}
	return g
}

// HybridFilter enforces dual-channel rules on RF traffic:
//
//   - formation-changing maneuvers (split, dissolve, gap-open, leave,
//     join) must have an optical copy within Window;
//   - beacons from vehicles whose state is being observed optically
//     must agree with that observation (kills replayed beacons: their
//     recorded positions lag the optically-observed truth).
type HybridFilter struct {
	// Window is how long an optical confirmation remains valid.
	Window sim.Time
	// Require lists the maneuver types needing confirmation.
	Require map[message.ManeuverType]bool
	// SpeedTolerance and PosTolerance bound the allowed RF-vs-optical
	// beacon deviation.
	SpeedTolerance float64
	PosTolerance   float64

	seen    map[[32]byte]sim.Time
	optical map[uint32]opticalState
	rx      message.Beacon   // decode scratch for the beacon under Check
	mv      message.Maneuver // decode scratch for the maneuver under Check

	// Dropped counts unconfirmed maneuvers rejected; Mismatched counts
	// beacons contradicting optical state.
	Dropped    uint64
	Mismatched uint64
}

type opticalState struct {
	b  message.Beacon
	at sim.Time
}

var _ platoon.Filter = (*HybridFilter)(nil)

// NewHybridFilter requires confirmation for the maneuvers whose forgery
// breaks platoons (§V-A3) and for join traffic (Sybil ghosts have no
// taillights to signal through).
func NewHybridFilter() *HybridFilter {
	return &HybridFilter{
		Window: 2 * sim.Second,
		Require: map[message.ManeuverType]bool{
			message.ManeuverSplit:        true,
			message.ManeuverDissolve:     true,
			message.ManeuverGapOpen:      true,
			message.ManeuverLeaveRequest: true,
			message.ManeuverJoinRequest:  true,
			message.ManeuverJoinComplete: true,
		},
		SpeedTolerance: 3,
		PosTolerance:   15,
		seen:           make(map[[32]byte]sim.Time),
		optical:        make(map[uint32]opticalState),
	}
}

// Name implements platoon.Filter.
func (f *HybridFilter) Name() string { return "sp-vlc" }

// Add records an optical maneuver confirmation.
func (f *HybridFilter) Add(digest [32]byte, at sim.Time) {
	if len(f.seen) > 4096 {
		for k, t := range f.seen {
			if at-t > f.Window {
				delete(f.seen, k)
			}
		}
	}
	f.seen[digest] = at
}

// AddOptical records a state observation received over the optical
// channel.
func (f *HybridFilter) AddOptical(b message.Beacon, at sim.Time) {
	f.optical[b.VehicleID] = opticalState{b: b, at: at}
}

// Check implements platoon.Filter.
//
//platoonvet:sanitizer -- cross-modal consistency acceptance: radio claims are checked against the optical channel before being trusted
//platoonvet:taint-source params -- filters inspect envelopes the signature check may not have vouched for in open baselines
func (f *HybridFilter) Check(env *message.Envelope, _ mac.Rx, now sim.Time) error {
	kind, err := env.Kind()
	if err != nil {
		return nil
	}
	switch kind {
	case message.KindManeuver:
		m := &f.mv
		if err := message.DecodeManeuver(env.Payload, m); err != nil || !f.Require[m.Type] {
			return nil
		}
		digest := sha256.Sum256(env.Payload)
		if at, ok := f.seen[digest]; ok && now-at <= f.Window {
			return nil
		}
		f.Dropped++
		return fmt.Errorf("%w: %v from %d", ErrNoVLCConfirmation, m.Type, env.SenderID)
	case message.KindBeacon:
		b := &f.rx
		if err := message.DecodeBeacon(env.Payload, b); err != nil {
			return nil
		}
		opt, ok := f.optical[b.VehicleID]
		if !ok || now-opt.at > 500*sim.Millisecond {
			return nil // not under optical observation
		}
		// Extrapolate the optical position to now before comparing.
		dt := (now - opt.at).Seconds()
		predicted := opt.b.Position + opt.b.Speed*dt
		if abs(b.Speed-opt.b.Speed) > f.SpeedTolerance ||
			abs(b.Position-predicted) > f.PosTolerance {
			f.Mismatched++
			return fmt.Errorf("%w: %d (rf pos %.1f vs optical %.1f)",
				ErrVLCMismatch, b.VehicleID, b.Position, predicted)
		}
		return nil
	default:
		return nil
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
