package platoon

import (
	"errors"
	"fmt"

	"platoonsec/internal/control"
	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/obs"
	"platoonsec/internal/obs/span"
	"platoonsec/internal/security"
	"platoonsec/internal/sim"
	"platoonsec/internal/vehicle"
)

// SecurityOptions attaches cryptographic protection to an agent.
type SecurityOptions struct {
	// Signer signs outgoing envelopes. Nil sends unsigned traffic.
	Signer *security.Signer
	// Verifier validates inbound envelopes (certificate, signature,
	// optionally replay). Nil accepts everything — the open baseline.
	Verifier *security.Verifier
	// Session, when non-nil, encrypts whole envelopes on the air
	// (confidentiality against eavesdropping, §V-C).
	Session *security.SessionKey
}

// BeaconRecord is the last-heard state of a neighbour.
type BeaconRecord struct {
	Beacon     message.Beacon
	At         sim.Time
	RxPowerDBm float64
}

// Counters aggregates an agent's protocol statistics.
type Counters struct {
	BeaconsSent       uint64
	BeaconsAccepted   uint64
	BeaconsViaVLC     uint64
	ManeuversSent     uint64
	ManeuversAccepted uint64
	RostersAccepted   uint64
	JoinsAccepted     uint64
	JoinsDenied       uint64
	DecryptFailures   uint64
	DecodeFailures    uint64
	VerifyDrops       uint64
	FilterDrops       map[string]uint64
}

type joinPhase int

const (
	joinIdle joinPhase = iota
	joinRequested
	joinApproaching
)

// Agent is one vehicle's platoon protocol endpoint.
type Agent struct {
	k    *sim.Kernel
	bus  *mac.Bus
	veh  *vehicle.Vehicle
	cfg  Config
	role message.Role

	ctrl    control.Controller
	cruise  *control.Cruise
	sec     *SecurityOptions
	filters []Filter

	gapSensor     func() (gap, rate float64, ok bool)
	speedProfile  func(now sim.Time) float64
	beaconMutator func(b *message.Beacon)
	messageHook   func(kind message.Kind, env *message.Envelope, rx mac.Rx, now sim.Time)
	txTap         func(payload []byte)
	positionSrc   func() (pos float64, ok bool)

	seq    uint32
	encSeq uint32

	neighbors map[uint32]BeaconRecord
	roster    []uint32
	rosterSeq uint32
	rosterAt  sim.Time
	leaderID  uint32

	pendingJoins map[uint32]sim.Time
	join         joinPhase
	joinPlatoon  uint32

	gapOverride      float64
	gapOverrideUntil sim.Time
	lastLeaderHeard  sim.Time
	disbanded        bool

	autoRejoin    bool
	wantsOut      bool
	lastRosterIdx int
	nextRejoinAt  sim.Time

	counters Counters
	tickers  []*sim.Ticker
	started  bool

	// Causal provenance. rxSpan is the delivery span of the frame being
	// dispatched; txCause is a one-shot cause consumed by the next send;
	// lastRosterMutation parents subsequent membership broadcasts;
	// spanTag supplies a standing cause for frames the agent originates
	// while compromised (sensor spoofing, malware).
	spans              *span.Store
	spanTag            func() (span.ID, bool)
	txCause            span.ID
	rxSpan             span.ID
	lastRosterMutation span.ID

	// Per-frame scratch. The DES is single-goroutine, sends complete
	// before the next event, and no filter, handler or hook retains the
	// dispatched envelope / decoded message or their backing slices
	// (they copy what they keep), so one set per agent suffices.
	// msgBuf holds the inner payload being encoded; wireBuf the
	// envelope image around it — both live simultaneously, hence two.
	msgBuf     []byte
	wireBuf    []byte
	txEnv      message.Envelope
	txBeacon   message.Beacon
	txManeuver message.Maneuver
	txMemb     message.Membership
	rxEnv      message.Envelope
	rxBeacon   message.Beacon
	rxManeuver message.Maneuver
	rxMemb     message.Membership
	// session seals and opens frames under sec.Session, caching the
	// cipher state across frames until the key changes.
	session security.SessionCipher
}

// Option customises an agent.
type Option func(*Agent)

// WithController selects the member control law (default: CACC).
func WithController(c control.Controller) Option {
	return func(a *Agent) { a.ctrl = c }
}

// WithSecurity attaches signing/verification/encryption.
func WithSecurity(sec *SecurityOptions) Option {
	return func(a *Agent) { a.sec = sec }
}

// WithFilters appends inbound defense filters, evaluated in order.
func WithFilters(fs ...Filter) Option {
	return func(a *Agent) { a.filters = append(a.filters, fs...) }
}

// WithGapSensor wires the forward ranging measurement (radar against the
// physical world; the scenario provides the closure).
func WithGapSensor(fn func() (gap, rate float64, ok bool)) Option {
	return func(a *Agent) { a.gapSensor = fn }
}

// WithSpeedProfile sets the leader's speed setpoint as a function of
// time (the scripted human driver).
func WithSpeedProfile(fn func(now sim.Time) float64) Option {
	return func(a *Agent) { a.speedProfile = fn }
}

// WithBeaconMutator installs a hook that may rewrite outgoing beacons —
// the malware/insider-FDI primitive (§V-A: "the attacker can
// deliberately transmit false or misleading information").
func WithBeaconMutator(fn func(b *message.Beacon)) Option {
	return func(a *Agent) { a.beaconMutator = fn }
}

// WithAutoRejoin makes a member that is thrown out of its platoon
// (fake leave, forged split, dissolve — anything except its own
// voluntary departure) request readmission when it next hears the
// leader's beacons. This is the reconnection behaviour §V-A3 describes
// ("break down a platoon into individual members, which will then need
// to reconnect, thus decreasing efficiency"): with it enabled, the
// fake-split experiment measures reform time instead of permanent loss.
func WithAutoRejoin() Option {
	return func(a *Agent) { a.autoRejoin = true }
}

// WithMessageHook installs a handler for message kinds the agent does
// not consume itself (key management); internal/rsu's client uses it.
func WithMessageHook(fn func(kind message.Kind, env *message.Envelope, rx mac.Rx, now sim.Time)) Option {
	return func(a *Agent) { a.messageHook = fn }
}

// WithTxTap installs a tap invoked with every payload the agent
// originates (before signing/encryption). The SP-VLC hybrid chain uses
// it to mirror leader traffic onto the optical channel.
func WithTxTap(fn func(payload []byte)) Option {
	return func(a *Agent) { a.txTap = fn }
}

// WithPositionSource makes beacons report positions from the given
// source (typically a GPS fix) instead of ground truth. When the source
// reports no fix, the agent falls back to dead-reckoned dynamics state.
// GPS spoofing (§V-G) therefore corrupts the victim's own beacons.
func WithPositionSource(fn func() (pos float64, ok bool)) Option {
	return func(a *Agent) { a.positionSrc = fn }
}

// NewAgent builds an agent for veh in the given role.
func NewAgent(k *sim.Kernel, bus *mac.Bus, veh *vehicle.Vehicle, role message.Role, cfg Config, opts ...Option) *Agent {
	a := &Agent{
		k:               k,
		bus:             bus,
		veh:             veh,
		cfg:             cfg,
		role:            role,
		cruise:          control.NewCruise(),
		neighbors:       make(map[uint32]BeaconRecord),
		pendingJoins:    make(map[uint32]sim.Time),
		counters:        Counters{FilterDrops: make(map[string]uint64)},
		lastLeaderHeard: -1,
	}
	for _, opt := range opts {
		opt(a)
	}
	if a.ctrl == nil {
		a.ctrl = control.NewCACC()
	}
	return a
}

// ID returns the agent's vehicle ID.
func (a *Agent) ID() uint32 { return uint32(a.veh.ID) }

// Role returns the agent's current platoon role.
func (a *Agent) Role() message.Role { return a.role }

// Vehicle returns the underlying vehicle.
func (a *Agent) Vehicle() *vehicle.Vehicle { return a.veh }

// Roster returns a copy of the last known member list (front to back,
// excluding the leader).
func (a *Agent) Roster() []uint32 {
	out := make([]uint32, len(a.roster))
	copy(out, a.roster)
	return out
}

// LeaderID returns the leader this agent follows (0 when free).
func (a *Agent) LeaderID() uint32 { return a.leaderID }

// Disbanded reports whether the agent has lost its platoon (leader
// silence exceeded DisbandTimeout).
func (a *Agent) Disbanded() bool { return a.disbanded }

// Counters returns a copy of the agent's statistics.
func (a *Agent) Counters() Counters {
	c := a.counters
	c.FilterDrops = make(map[string]uint64, len(a.counters.FilterDrops))
	for k, v := range a.counters.FilterDrops {
		c.FilterDrops[k] = v
	}
	return c
}

// Neighbors returns a copy of the beacon table.
func (a *Agent) Neighbors() map[uint32]BeaconRecord {
	out := make(map[uint32]BeaconRecord, len(a.neighbors))
	for k, v := range a.neighbors {
		out[k] = v
	}
	return out
}

// GapTarget returns the current spacing target (accounting for maneuver
// gap overrides).
func (a *Agent) GapTarget(now sim.Time) float64 {
	if a.gapOverride > 0 && (a.gapOverrideUntil == 0 || now < a.gapOverrideUntil) {
		return a.gapOverride
	}
	return a.cfg.DesiredGap
}

// LeaderFresh reports whether leader state is fresh enough for CACC.
func (a *Agent) LeaderFresh(now sim.Time) bool {
	if a.leaderID == 0 {
		return false
	}
	rec, ok := a.neighbors[a.leaderID]
	return ok && now-rec.At <= a.cfg.BeaconStale
}

// Bootstrap pre-forms platoon state without running the join protocol:
// it sets the leader and the ordered roster. Scenarios use it to start
// experiments from an already-cruising platoon.
func (a *Agent) Bootstrap(leaderID uint32, roster []uint32) {
	a.leaderID = leaderID
	a.roster = append(a.roster[:0], roster...)
	a.lastLeaderHeard = a.k.Now()
}

// Start attaches the agent to the bus and begins its tickers.
func (a *Agent) Start() error {
	if a.started {
		return errors.New("platoon: agent already started")
	}
	err := a.bus.Attach(mac.NodeID(a.veh.ID), func() float64 {
		return a.veh.State().Position
	}, a.cfg.TxPowerDBm, a.onRx)
	if err != nil {
		return fmt.Errorf("platoon: start agent %v: %w", a.veh.ID, err)
	}
	a.started = true
	if a.role == message.RoleLeader {
		a.leaderID = a.ID()
	}
	// Stagger beacons by vehicle ID so same-instant collisions don't
	// synchronise pathologically.
	offset := sim.Time(a.ID()%16) * (a.cfg.BeaconPeriod / 16)
	a.tickers = append(a.tickers,
		a.k.Every(a.k.Now()+offset, a.cfg.BeaconPeriod, "beacon", a.sendBeacon),
		a.k.Every(a.k.Now()+a.cfg.ControlPeriod, a.cfg.ControlPeriod, "control", a.controlStep),
	)
	if a.role == message.RoleLeader {
		a.tickers = append(a.tickers,
			a.k.Every(a.k.Now()+a.cfg.MembershipPeriod, a.cfg.MembershipPeriod, "membership", a.sendMembership))
	}
	return nil
}

// Stop detaches the agent and halts its tickers.
func (a *Agent) Stop() {
	for _, t := range a.tickers {
		t.Stop()
	}
	a.tickers = nil
	if a.started {
		a.bus.Detach(mac.NodeID(a.veh.ID))
		a.started = false
	}
}

// SetSpans attaches a causal span store; nil detaches it.
func (a *Agent) SetSpans(s *span.Store) { a.spans = s }

// SetSpanTag installs a closure consulted for a causal tag whenever the
// agent originates a frame with no explicit cause. Scenarios use it to
// attribute a compromised insider's traffic (GPS spoofing, malware FDI)
// to the attack that corrupted it.
func (a *Agent) SetSpanTag(fn func() (span.ID, bool)) { a.spanTag = fn }

// spanAdd records one platoon-layer span; zero with tracing off.
func (a *Agent) spanAdd(kind string, parent span.ID, subject uint32, detail string) span.ID {
	if a.spans == nil {
		return 0
	}
	return a.spans.Add(span.Span{
		Parent:  parent,
		AtNS:    int64(a.k.Now()),
		Layer:   obs.LayerPlatoon,
		Kind:    kind,
		Subject: subject,
		Detail:  detail,
	})
}

// nextSeq returns a monotonically increasing message sequence number.
func (a *Agent) nextSeq() uint32 {
	a.seq++
	return a.seq
}

// send wraps payload per the security options and broadcasts it.
func (a *Agent) send(payload []byte) {
	if a.txTap != nil {
		//platoonvet:alloc-ok txTap is a capture/instrumentation hook, nil in plain scenarios
		a.txTap(payload)
	}
	var env *message.Envelope
	if a.sec != nil && a.sec.Signer != nil {
		env = a.sec.Signer.Seal(payload)
	} else {
		a.txEnv = message.Envelope{SenderID: a.ID(), Payload: payload}
		env = &a.txEnv
	}
	a.wireBuf = env.AppendTo(a.wireBuf[:0])
	wire := a.wireBuf
	if a.sec != nil && a.sec.Session != nil {
		a.encSeq++
		sealed, err := a.session.Seal(*a.sec.Session, wire, a.ID(), a.encSeq)
		if err == nil {
			wire = sealed
		}
	}
	cause := a.txCause
	a.txCause = 0
	if cause == 0 && a.spanTag != nil {
		//platoonvet:alloc-ok spanTag hook runs only when span capture is on
		if c, ok := a.spanTag(); ok {
			cause = c
		}
	}
	//platoonvet:allow errcheck -- Send fails only for a detached node; a revoked or departed vehicle transmitting into the void is modeled off-air loss, not a fault
	_ = a.bus.SendCaused(mac.NodeID(a.veh.ID), wire, cause)
}

// SendPlain signs (if configured) and broadcasts payload on the
// unencrypted service channel, bypassing link encryption. Key-management
// traffic uses it: a vehicle cannot encrypt its request for the very key
// it is requesting.
func (a *Agent) SendPlain(payload []byte) {
	var env *message.Envelope
	if a.sec != nil && a.sec.Signer != nil {
		env = a.sec.Signer.Seal(payload)
	} else {
		a.txEnv = message.Envelope{SenderID: a.ID(), Payload: payload}
		env = &a.txEnv
	}
	a.wireBuf = env.AppendTo(a.wireBuf[:0])
	//platoonvet:allow errcheck -- Send fails only for a detached node; a revoked or departed vehicle transmitting into the void is modeled off-air loss, not a fault
	_ = a.bus.Send(mac.NodeID(a.veh.ID), a.wireBuf)
}

// NextSeq exposes the agent's message sequence counter for companion
// components (the RSU key client) that originate their own messages.
func (a *Agent) NextSeq() uint32 { return a.nextSeq() }

// Now returns the agent's simulation clock.
func (a *Agent) Now() sim.Time { return a.k.Now() }

// sendBeacon broadcasts the agent's CAM.
func (a *Agent) sendBeacon() {
	now := a.k.Now()
	st := a.veh.State()
	pos := st.Position
	if a.positionSrc != nil {
		//platoonvet:alloc-ok positionSrc is a privacy/attack override hook, nil for honest agents
		if p, ok := a.positionSrc(); ok {
			pos = p
		}
	}
	b := &a.txBeacon
	*b = message.Beacon{
		VehicleID:  a.ID(),
		PlatoonID:  a.platoonID(),
		Seq:        a.nextSeq(),
		TimestampN: int64(now),
		Role:       a.role,
		Position:   pos,
		Speed:      st.Speed,
		Accel:      st.Accel,
	}
	if a.role == message.RoleLeader {
		b.LeaderSpeed = st.Speed
		b.LeaderAccel = st.Accel
	} else if rec, ok := a.neighbors[a.leaderID]; ok {
		b.LeaderSpeed = rec.Beacon.LeaderSpeed
		b.LeaderAccel = rec.Beacon.LeaderAccel
	}
	if a.beaconMutator != nil {
		//platoonvet:alloc-ok beaconMutator is an attack instrumentation hook, nil for honest agents
		a.beaconMutator(b)
	}
	a.counters.BeaconsSent++
	a.msgBuf = b.AppendTo(a.msgBuf[:0])
	a.send(a.msgBuf)
}

func (a *Agent) platoonID() uint32 {
	switch a.role {
	case message.RoleFree:
		return 0
	default:
		return a.cfg.PlatoonID
	}
}

// sendManeuver broadcasts a maneuver message.
func (a *Agent) sendManeuver(typ message.ManeuverType, target uint32, slot uint16, param float64) {
	a.txManeuver = message.Maneuver{
		Type:       typ,
		VehicleID:  a.ID(),
		PlatoonID:  a.cfg.PlatoonID,
		TargetID:   target,
		Seq:        a.nextSeq(),
		TimestampN: int64(a.k.Now()),
		Slot:       slot,
		Param:      param,
	}
	a.counters.ManeuversSent++
	a.msgBuf = a.txManeuver.AppendTo(a.msgBuf[:0])
	a.send(a.msgBuf)
}

// onRx is the bus receive callback.
func (a *Agent) onRx(rx mac.Rx) {
	now := a.k.Now()
	wire := rx.Payload
	if a.sec != nil && a.sec.Session != nil {
		plain, err := a.session.Open(*a.sec.Session, wire)
		if err != nil {
			// Not sealed under our session key. Key-management traffic
			// and pre-admission context proofs legitimately travel on
			// the plain service channel (their senders do not hold the
			// session key yet); anything else is noise (or an attack on
			// an encrypted platoon).
			if perr := message.DecodeEnvelope(wire, &a.rxEnv); perr == nil {
				if kind, kerr := a.rxEnv.Kind(); kerr == nil &&
					(kind == message.KindKeyRequest || kind == message.KindKeyResponse ||
						kind == message.KindContextProof) {
					a.dispatch(&a.rxEnv, rx, now)
					return
				}
			}
			a.counters.DecryptFailures++
			return
		}
		wire = plain
	}
	if err := message.DecodeEnvelope(wire, &a.rxEnv); err != nil {
		a.counters.DecodeFailures++
		return
	}
	a.dispatch(&a.rxEnv, rx, now)
}

// dispatch verifies, filters and routes a decoded envelope.
func (a *Agent) dispatch(env *message.Envelope, rx mac.Rx, now sim.Time) {
	a.rxSpan = rx.Span
	if a.sec != nil && a.sec.Verifier != nil {
		if _, err := a.sec.Verifier.Verify(env, now); err != nil {
			a.counters.VerifyDrops++
			return
		}
	}
	for _, f := range a.filters {
		//platoonvet:alloc-ok the filter pipeline is the defense-in-depth boundary; one dynamic call per filter per frame
		if err := f.Check(env, rx, now); err != nil {
			//platoonvet:alloc-ok Name is called only on the drop path
			a.counters.FilterDrops[f.Name()]++
			return
		}
	}
	kind, err := env.Kind()
	if err != nil {
		a.counters.DecodeFailures++
		return
	}
	switch kind {
	case message.KindBeacon:
		a.handleBeacon(env, rx, now)
	case message.KindManeuver:
		a.handleManeuver(env, now)
	case message.KindMembership:
		a.handleMembership(env, now)
	default:
		if a.messageHook != nil {
			//platoonvet:alloc-ok messageHook is an extension point, nil unless a scenario installs one
			a.messageHook(kind, env, rx, now)
		}
	}
}
