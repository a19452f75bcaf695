package scenario

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"platoonsec/internal/attack"
	"platoonsec/internal/defense"
	"platoonsec/internal/detmap"
	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/metrics"
	"platoonsec/internal/obs"
	"platoonsec/internal/obs/span"
	"platoonsec/internal/phy"
	"platoonsec/internal/platoon"
	"platoonsec/internal/rsu"
	"platoonsec/internal/security"
	"platoonsec/internal/sim"
	"platoonsec/internal/trace"
	"platoonsec/internal/vehicle"
)

// Node-ID blocks used by scenarios; vehicles take 1..Vehicles.
const (
	attackerNodeID = 900
	observerNodeID = 901
	rsuNodeID      = 1000
	joinerID       = 40
	ghostIDBase    = 500
	dosIDBase      = 600
)

// Vehicle IDs stay below the observer's, so the leader's roster frame
// always fits: this fails to compile if the plan outgrows the frame.
var _ [message.MaxRosterMembers - observerNodeID]struct{}

// checkIDPlan holds the identity rules of a run by interval arithmetic
// on the blocks above. Bus nodes (the vehicles, the joiner, the
// attacker radio of a radio attack, the observer, the RSU) must be
// distinct, and the identities an attack claims must miss the genuine
// ones: sybil ghosts the vehicles, joiner and RSU; DoS join requests,
// a fresh ID from dosIDBase upward per request, the vehicles and joiner
// (the other nodes never request admission, so a long flood may pass
// their IDs). Every block lies above 1, the joiner below both claimed
// blocks and the observer below the RSU, so the vehicles must end
// below the lowest block of the run.
func (o *Options) checkIDPlan(radio bool) error {
	lowest, name := observerNodeID, "the observer's node ID"
	below := func(id int, what string) {
		if id < lowest {
			lowest, name = id, what
		}
	}
	if radio {
		below(attackerNodeID, "the attacker radio's node ID")
	}
	if o.WithJoiner {
		below(joinerID, "the joiner's node ID")
	}
	switch o.AttackKey {
	case "sybil":
		if o.SybilGhosts < 0 || o.SybilGhosts > rsuNodeID-ghostIDBase {
			return fmt.Errorf("scenario: sybil ghosts must be in [0, %d], so that ghost IDs from %d stay below the RSU's %d; got %d",
				rsuNodeID-ghostIDBase, ghostIDBase, rsuNodeID, o.SybilGhosts)
		}
		below(ghostIDBase, "the sybil ghosts' IDs")
	case "dos":
		below(dosIDBase, "the DoS join requests' IDs")
	}
	if o.Vehicles >= lowest {
		return fmt.Errorf("scenario: vehicle IDs 1..%d reach %s, %d (at most %d vehicles)", o.Vehicles, name, lowest, lowest-1)
	}
	return nil
}

// world is the assembled experiment state.
type world struct {
	opts Options

	k   *sim.Kernel
	bus *mac.Bus
	ch  *phy.Channel
	rec *obs.FlightRecorder // nil unless Options.Observe

	ca      *security.CA
	ta      *rsu.Authority
	station *rsu.RSU
	session security.SessionKey

	vehs    []*vehicle.Vehicle
	agents  []*platoon.Agent // leader first
	gpses   []*vehicle.GPS   // index-aligned with agents
	radars  []*vehicle.Ranger
	lidars  []*vehicle.Ranger
	fusions []*defense.SensorFusion
	trusts  []*defense.TrustManager
	vpds    []*defense.VPDADA
	chain   *defense.HybridChain

	joiner *platoon.Agent

	eval        *metrics.DetectionEval
	detections  map[string]uint64
	blacklisted map[uint32]bool
	revoked     map[uint32]bool

	road          defense.RoadProfile
	leaderSampler *defense.ContextSampler
	joinerSampler *defense.ContextSampler
	convoyGate    *defense.ConvoyGate

	eaves   *attack.Eavesdrop
	atk     attack.Attack
	radio   *attack.Radio
	jam     *attack.Jamming
	malware *attack.Malware

	// Causal provenance (nil/zero unless Options.Spans). attackRoot is
	// the armed attack's origin span; lastDetect is the most recent
	// VPD-ADA detection, parenting blacklist/revocation spans.
	spans      *span.Store
	attackRoot span.ID
	lastDetect span.ID
	spikeSeen  bool

	// sampling state
	spacing    metrics.Series
	meanSample metrics.Series
	disbanded  metrics.Series
	collided   []bool
	fuel       []*vehicle.Integrator
	samples    int
	sawDamage  bool
	reformedAt sim.Time
	events     *trace.JSONL
	prevRoles  []message.Role

	// ioErr is the first trace/timeline write failure; Run surfaces it
	// so a truncated artifact cannot masquerade as a complete
	// experiment.
	ioErr error
}

// noteIO records the first artifact-write failure.
func (w *world) noteIO(err error) {
	if err != nil && w.ioErr == nil {
		w.ioErr = err
	}
}

// emit builds one scenario-layer obs.Record and offers it to both
// sinks: the flight recorder (when attached) and the JSONL timeline
// (when requested). One record type, one schema — the timeline is the
// recorder's wire format, not a parallel event vocabulary.
func (w *world) emit(kind string, subject uint32, detail string) {
	rec := obs.Record{
		AtNS:  int64(w.k.Now()),
		Layer: obs.LayerScenario,
		Level: obs.LevelInfo,
		//platoonvet:alloc-ok emit runs at sampling cadence (10 Hz) and on rare transitions, not per frame
		Kind:    "scenario." + kind,
		Subject: subject,
		Detail:  detail,
	}
	if w.rec != nil && w.rec.Enabled(obs.LayerScenario, obs.LevelInfo) {
		w.rec.Record(rec)
	}
	if w.events != nil {
		//platoonvet:alloc-ok one Record boxed per emitted scenario event at sampling cadence
		w.noteIO(w.events.Event(rec))
	}
}

// spanAdd records one span at the current simulated instant; zero with
// tracing off.
func (w *world) spanAdd(sp span.Span) span.ID {
	if w.spans == nil {
		return 0
	}
	sp.AtNS = int64(w.k.Now())
	return w.spans.Add(sp)
}

// setAttackRoot captures the armed attack's origin span as the run's
// causal root. Radio-borne attacks and jammers record their own arming
// spans; attacks with no transmitter of their own (sensor spoofing,
// malware) get a synthetic scenario-level root so their downstream
// effects still attribute.
func (w *world) setAttackRoot() {
	if w.spans == nil || w.attackRoot != 0 {
		return
	}
	if w.radio != nil {
		if id := w.radio.ArmSpan(); id != 0 {
			w.attackRoot = id
			return
		}
	}
	if w.jam != nil {
		if id := w.jam.ArmSpan(); id != 0 {
			w.attackRoot = id
			return
		}
	}
	w.attackRoot = w.spanAdd(span.Span{
		Layer:  obs.LayerAttack,
		Kind:   "attack.arm",
		Attack: true,
		Detail: w.opts.AttackKey,
	})
}

// nowNS is the injected clock for recorder-carrying components that
// hold no kernel reference (phy channel, defense detectors).
func (w *world) nowNS() int64 { return int64(w.k.Now()) }

// recorder returns the flight recorder as a true-nil interface when
// observability is off, so SetRecorder call sites stay unconditional
// without boxing a nil pointer.
func (w *world) recorder() obs.Recorder {
	if w.rec == nil {
		return nil
	}
	return w.rec
}

// Validate reports whether the options describe a run that builds and
// measures what it claims: every bound of a run, O(1) and allocating
// only its error. With World set it validates the inherited world.
func (o Options) Validate() error {
	if o.World != nil {
		return o.worldOptions().Validate()
	}
	if o.Vehicles < 2 {
		return errors.New("scenario: need at least 2 vehicles")
	}
	radio, ok := attackKeys[o.AttackKey]
	if !ok {
		return fmt.Errorf("scenario: unknown attack key %q", o.AttackKey)
	}
	if _, ok := fakeManeuverKinds[o.FakeManeuverVariant]; !ok && o.AttackKey == "fake-maneuver" {
		return fmt.Errorf("scenario: unknown fake-maneuver variant %q", o.FakeManeuverVariant)
	}
	if err := o.checkIDPlan(radio); err != nil {
		return err
	}
	if o.Duration <= 0 {
		return errors.New("scenario: non-positive duration")
	}
	return nil
}

// Run executes one experiment.
func Run(opts Options) (*Result, error) {
	if opts.World != nil {
		return nil, errors.New("scenario: Run is the single-platoon run; use RunWorld for Options.World")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	w, err := build(opts)
	if err != nil {
		return nil, err
	}
	if err := w.k.Run(opts.Duration); err != nil {
		return nil, fmt.Errorf("scenario: run: %w", err)
	}
	if opts.ChromeTrace != nil {
		w.noteIO(obs.WriteChromeTraceWithFlows(opts.ChromeTrace, w.rec.Records(), w.spans.FlowEvents()))
	}
	if w.ioErr != nil {
		return nil, fmt.Errorf("scenario: writing artifacts: %w", w.ioErr)
	}
	return w.collect(), nil
}

func build(opts Options) (*world, error) {
	w := &world{
		opts:        opts,
		k:           sim.NewKernel(opts.Seed),
		detections:  make(map[string]uint64),
		blacklisted: make(map[uint32]bool),
		revoked:     make(map[uint32]bool),
	}
	if opts.EventsJSONL != nil {
		w.events = trace.NewJSONL(opts.EventsJSONL)
	}
	env := phy.DefaultEnvironment()
	if opts.ChannelEnv != nil {
		env = *opts.ChannelEnv
	}
	w.ch = phy.NewChannel(env, w.k.Stream("phy"))
	w.bus = mac.NewBus(w.k, w.ch, mac.DefaultConfig())
	if opts.Observe || opts.ChromeTrace != nil {
		w.rec = obs.NewFlightRecorder(obs.Config{
			Capacity: opts.ObsCapacity,
			MinLevel: opts.ObsMinLevel,
		})
		w.k.SetRecorder(w.rec)
		w.ch.SetRecorder(w.rec, w.nowNS)
		w.bus.SetRecorder(w.rec)
	}
	if opts.Spans {
		w.spans = span.NewStore(opts.SpanCapacity)
		w.bus.SetSpans(w.spans)
		w.ch.SetSpans(w.spans, w.nowNS)
	}
	w.road = defense.NewRoadProfile(opts.Seed)

	var err error
	w.ca, err = security.NewCA(w.k.Stream("ca"))
	if err != nil {
		return nil, fmt.Errorf("scenario: ca: %w", err)
	}
	w.ca.SetRecorder(w.recorder())
	w.ta = rsu.NewAuthority(w.ca, w.k.Stream("ta"))
	w.session = w.ta.SessionKey(opts.Cfg.PlatoonID)
	w.station = rsu.New(w.k, w.bus, w.ta, rsuNodeID, 2100)
	if err := w.station.Start(); err != nil {
		return nil, err
	}

	cfg := opts.Cfg
	if opts.Defense.GapTimeout {
		cfg.GapOpenTimeout = 10 * sim.Second
	}
	profile := opts.SpeedProfile
	if profile == nil {
		profile = defaultProfile(opts.Duration, cfg.CruiseSpeed)
	}

	if opts.AttackKey == "malware" {
		// The compromised insider must be wired into its agent at
		// construction time; it stays dormant until AttackStart.
		w.malware = attack.NewMalware()
		w.eval = metrics.NewDetectionEval(2) // first member compromised
		if opts.Defense.HardenedOnboard {
			// §VI-A5 hardening blocks the infection vector: the FDI
			// payload never reaches the TX path; the residual attacker
			// foothold (a compromised non-critical ECU) can only try
			// CAN injections, which the firewall stops.
			canBus := vehicle.NewCANBus()
			canBus.SetFirewall(defense.StandardFirewall())
			w.malware.CANTarget = canBus
		}
	}
	if err := w.buildPlatoon(cfg, profile); err != nil {
		return nil, err
	}
	if opts.WithJoiner {
		if err := w.addJoiner(cfg); err != nil {
			return nil, err
		}
	}
	if err := w.armObserver(); err != nil {
		return nil, err
	}
	switch opts.AttackKey {
	case "", "eavesdropping":
		// The always-on observer is the eavesdropping attack.
	case "malware":
		w.atk = w.malware
		w.k.At(opts.AttackStart, "attack.arm", func() {
			if err := w.malware.Start(); err != nil {
				//platoonvet:alloc-ok the arm closure fires once; the Sprintf is on its panic path
				panic(fmt.Sprintf("scenario: arming malware: %v", err))
			}
			w.setAttackRoot()
		})
	default:
		w.armAttack(cfg)
	}
	if w.spans != nil {
		// Compromised insiders transmit under their own identity; tag
		// their frames with the attack root so corrupted beacons stay
		// attributable even though no attacker radio sent them. The tag
		// stays dormant (zero root) until the attack arms.
		tag := func() (span.ID, bool) { return w.attackRoot, w.attackRoot != 0 }
		switch opts.AttackKey {
		case "sensor-spoofing":
			w.agents[1].SetSpanTag(tag)
		case "malware":
			if w.malware != nil && !opts.Defense.HardenedOnboard {
				w.agents[1].SetSpanTag(tag)
			}
		}
	}
	w.startPhysicsAndSampling(cfg)
	return w, nil
}

// physGap measures the true gap and closing rate from v to the nearest
// vehicle ahead.
func (w *world) physGap(v *vehicle.Vehicle) (float64, float64, bool) {
	var ahead *vehicle.Vehicle
	best := math.Inf(1)
	for _, o := range w.vehs {
		if o == v {
			continue
		}
		d := o.State().Position - v.State().Position
		if d > 0 && d < best {
			best = d
			ahead = o
		}
	}
	if ahead == nil {
		return 0, 0, false
	}
	return v.Gap(ahead), ahead.State().Speed - v.State().Speed, true
}

// physRearGap measures the true gap from v's rear bumper to the nearest
// vehicle behind.
func (w *world) physRearGap(v *vehicle.Vehicle) (float64, bool) {
	var behind *vehicle.Vehicle
	best := math.Inf(1)
	for _, o := range w.vehs {
		if o == v {
			continue
		}
		d := v.State().Position - o.State().Position
		if d > 0 && d < best {
			best = d
			behind = o
		}
	}
	if behind == nil {
		return 0, false
	}
	gap := v.RearPosition() - behind.State().Position
	if gap < 0 || gap > 150 {
		return 0, false
	}
	return gap, true
}

// issue provisions an identity; it aborts the build on failure, which
// cannot happen with a healthy CA.
func (w *world) issue(vid uint32) (*security.Identity, error) {
	return w.ca.Issue(vid, 0, w.opts.Duration+1000*sim.Second, w.k.Stream("keys"))
}

// agentOptions assembles the defense stack for one vehicle.
func (w *world) agentOptions(vid uint32, v *vehicle.Vehicle, gps *vehicle.GPS, radar, lidar *vehicle.Ranger) ([]platoon.Option, error) {
	d := w.opts.Defense
	sensorGap := func() (float64, float64, bool) {
		g, r, ok := w.physGap(v)
		if !ok || g > radar.MaxRange {
			return 0, 0, false
		}
		reading := radar.Read(g, r)
		if !reading.Valid && d.Fusion && lidar != nil {
			// Redundant-sensor fallback (§VI-A5 "using multiple
			// sensors").
			reading = lidar.Read(g, r)
		}
		if !reading.Valid {
			return 0, 0, false
		}
		return reading.Range, reading.RangeRate, true
	}
	opts := []platoon.Option{platoon.WithGapSensor(sensorGap)}

	// Position source: fused or raw GPS.
	if d.Fusion {
		fusion := defense.NewSensorFusion(w.k, v, gps)
		fusion.Start()
		w.fusions = append(w.fusions, fusion)
		opts = append(opts, platoon.WithPositionSource(fusion.Position))
	} else {
		opts = append(opts, platoon.WithPositionSource(func() (float64, bool) {
			fix := gps.Read(v.State())
			return fix.Position, fix.Valid
		}))
	}

	// Cryptographic suite.
	if d.PKI || d.Encrypt {
		id, err := w.issue(vid)
		if err != nil {
			return nil, err
		}
		w.ta.Register(vid)
		var sec *platoon.SecurityOptions
		if d.Encrypt {
			s := w.session
			sec = defense.EncryptedSuite(w.ca, id, sim.Second, &s)
		} else {
			sec = defense.PKISuite(w.ca, id, sim.Second)
		}
		if !d.PKI {
			// Encryption without signatures: keep the session, drop the
			// verifier.
			sec.Verifier = nil
		}
		opts = append(opts, platoon.WithSecurity(sec))
	}

	// Filter chain: trust gate → rate limit → plausibility.
	var filters []platoon.Filter
	var trust *defense.TrustManager
	if d.Trust {
		trust = defense.NewTrustManager()
		self := vid
		trust.SetRecorder(w.recorder(), w.nowNS)
		trust.OnBlacklist = func(sender uint32) {
			w.blacklisted[sender] = true
			w.emit("blacklist", sender, "by vehicle "+strconv.FormatUint(uint64(self), 10))
			w.spanAdd(span.Span{
				Parent:  w.lastDetect,
				Layer:   obs.LayerDefense,
				Kind:    "defense.blacklist",
				Subject: sender,
			})
			if w.ta.Report(sender, self) {
				w.revoked[sender] = true
				w.emit("revoked", sender, "trusted authority")
				w.spanAdd(span.Span{
					Parent:  w.lastDetect,
					Layer:   obs.LayerDefense,
					Kind:    "defense.revoked",
					Subject: sender,
				})
			}
		}
		w.trusts = append(w.trusts, trust)
		filters = append(filters, trust)
	}
	// The join gate runs before the rate limiter: unseen-phantom join
	// requests must die before they can drain the global join budget
	// the genuine joiner needs.
	if d.JoinGate {
		filters = append(filters, defense.NewJoinGate(v))
	}
	if d.Convoy && vid == 1 {
		// The leader verifies joiners' road-context proofs against its
		// own suspension record.
		w.leaderSampler = defense.NewContextSampler(w.road, v, w.k.Stream("convoy-leader"))
		verifier := defense.NewConvoyVerifier(w.road)
		w.convoyGate = defense.NewConvoyGate(verifier)
		filters = append(filters, w.convoyGate)
		w.k.Every(0, 10*sim.Millisecond, "convoy.sample", func() {
			w.leaderSampler.Tick()
			verifier.ObserveAll(w.leaderSampler.Recent(8))
		})
	}
	if d.RateLimit {
		filters = append(filters, defense.NewRateLimiter())
	}
	if d.VPDADA {
		front := func() (float64, float64, bool) { return w.physGap(v) }
		rear := func() (float64, bool) { return w.physRearGap(v) }
		det := defense.NewVPDADA(v, front, rear)
		det.SetRecorder(w.recorder(), w.nowNS)
		det.SetSpans(w.spans, w.nowNS)
		trustRef := trust
		det.OnDetect = func(offender uint32, check string) {
			w.lastDetect = det.LastDetectSpan()
			w.detections[check]++
			w.emit("detection", offender, check)
			if w.eval != nil {
				w.eval.Record(offender)
			}
			// Stale timestamps and sequence anomalies implicate the
			// CLAIMED (innocent) sender of a replayed or forged frame;
			// never convert those into trust penalties.
			if trustRef != nil && check != "stale-timestamp" && check != "seq-anomaly" {
				trustRef.Penalize(offender, check)
			}
		}
		w.vpds = append(w.vpds, det)
		filters = append(filters, det)
	}
	if len(filters) > 0 {
		opts = append(opts, platoon.WithFilters(filters...))
	}
	return opts, nil
}

func (w *world) buildPlatoon(cfg platoon.Config, profile func(sim.Time) float64) error {
	d := w.opts.Defense
	var hybridFilters []*defense.HybridFilter
	if d.Hybrid {
		w.chain = defense.NewHybridChain(w.k, phy.NewVLCLink(w.k.Stream("vlc")))
	}

	pos := 2000.0
	var roster []uint32
	for i := 0; i < w.opts.Vehicles; i++ {
		vid := uint32(i + 1)
		v := vehicle.New(vehicle.ID(vid), vehicle.State{Position: pos, Speed: cfg.CruiseSpeed})
		w.vehs = append(w.vehs, v)
		gps := vehicle.NewGPS(1.5, 0.2, w.k.Stream("gps-"+strconv.FormatUint(uint64(vid), 10)))
		radar := vehicle.NewRadar(w.k.Stream("radar-" + strconv.FormatUint(uint64(vid), 10)))
		lidar := vehicle.NewLidar(w.k.Stream("lidar-" + strconv.FormatUint(uint64(vid), 10)))
		w.gpses = append(w.gpses, gps)
		w.radars = append(w.radars, radar)
		w.lidars = append(w.lidars, lidar)

		opts, err := w.agentOptions(vid, v, gps, radar, lidar)
		if err != nil {
			return err
		}
		role := message.RoleMember
		if i == 0 {
			role = message.RoleLeader
			opts = append(opts, platoon.WithSpeedProfile(profile))
		} else {
			roster = append(roster, vid)
			if w.opts.AutoRejoin {
				opts = append(opts, platoon.WithAutoRejoin())
			}
		}
		if i == 1 && w.malware != nil {
			if w.opts.Defense.HardenedOnboard {
				// Infection blocked: the payload only probes the CAN
				// bus, which the firewall refuses.
				w.k.Every(w.opts.AttackStart, sim.Second, "malware.can", func() {
					w.malware.InjectCAN()
					w.detections["can-blocked"] = w.malware.CANBlocked
				})
			} else {
				opts = append(opts, platoon.WithBeaconMutator(w.malware.Lie))
			}
		}
		if d.Hybrid {
			hf := defense.NewHybridFilter()
			hybridFilters = append(hybridFilters, hf)
			opts = append(opts, platoon.WithFilters(hf), platoon.WithTxTap(w.chain.Mirror))
		}
		a := platoon.NewAgent(w.k, w.bus, v, role, cfg, opts...)
		a.SetSpans(w.spans)
		w.agents = append(w.agents, a)
		pos -= v.Length + cfg.DesiredGap
	}
	for i, a := range w.agents {
		a.Bootstrap(1, roster)
		if w.chain != nil {
			w.chain.Append(a, hybridFilters[i])
		}
	}
	for _, a := range w.agents {
		if err := a.Start(); err != nil {
			return err
		}
	}
	if w.chain != nil {
		w.chain.Start()
	}
	if d.CV2X {
		bridge := defense.NewCV2XBridge(w.k, w.k.Stream("cv2x"), w.agents[0])
		for _, m := range w.agents[1:] {
			bridge.AddMember(m)
		}
		bridge.Start()
	}
	for range w.vehs {
		w.fuel = append(w.fuel, vehicle.NewIntegrator(vehicle.DefaultFuelModel()))
	}
	w.collided = make([]bool, len(w.vehs))
	return nil
}

func (w *world) addJoiner(cfg platoon.Config) error {
	tail := w.vehs[len(w.vehs)-1]
	v := vehicle.New(vehicle.ID(joinerID), vehicle.State{
		Position: tail.State().Position - 60,
		Speed:    cfg.CruiseSpeed,
	})
	w.vehs = append(w.vehs, v)
	w.fuel = append(w.fuel, vehicle.NewIntegrator(vehicle.DefaultFuelModel()))
	w.collided = append(w.collided, false)
	gps := vehicle.NewGPS(1.5, 0.2, w.k.Stream("gps-joiner"))
	radar := vehicle.NewRadar(w.k.Stream("radar-joiner"))
	lidar := vehicle.NewLidar(w.k.Stream("lidar-joiner"))
	opts, err := w.agentOptions(joinerID, v, gps, radar, lidar)
	if err != nil {
		return err
	}
	if w.chain != nil {
		// SP-VLC: the joiner approaches from behind the tail with line
		// of sight, so its maneuvers gain optical copies.
		opts = append(opts, platoon.WithTxTap(w.chain.Mirror))
	}
	w.joiner = platoon.NewAgent(w.k, w.bus, v, message.RoleFree, cfg, opts...)
	w.joiner.SetSpans(w.spans)
	if err := w.joiner.Start(); err != nil {
		return err
	}
	if w.opts.Defense.Convoy {
		w.joinerSampler = defense.NewContextSampler(w.road, v, w.k.Stream("convoy-joiner"))
		w.k.Every(0, 10*sim.Millisecond, "convoy.joiner", func() { w.joinerSampler.Tick() })
	}
	w.k.Every(w.opts.JoinerAt, 5*sim.Second, "joiner.retry", func() {
		if w.joiner.Role() != message.RoleFree {
			return
		}
		if w.joinerSampler != nil {
			// Present the road-context proof ahead of the request. The
			// sequence number comes from the agent's own counter so
			// per-sender freshness checks see one monotone stream.
			recent := w.joinerSampler.Recent(message.MaxProofSamples)
			proof := &message.ContextProof{
				VehicleID:  joinerID,
				PlatoonID:  cfg.PlatoonID,
				Seq:        w.joiner.NextSeq(),
				TimestampN: int64(w.k.Now()),
			}
			for _, s := range recent {
				proof.Samples = append(proof.Samples, message.ProofSample{
					Position: s.Position, Value: s.Value,
				})
			}
			w.joiner.SendPlain(proof.Marshal())
		}
		w.joiner.RequestJoin()
	})
	return nil
}

// armObserver attaches the always-on passive eavesdropper that measures
// confidentiality.
func (w *world) armObserver() error {
	leaderVeh := w.vehs[0]
	radio := attack.NewRadio(w.k, w.bus, observerNodeID, func() float64 {
		return leaderVeh.State().Position - 60
	}, 23)
	radio.SetRecorder(w.recorder())
	radio.SetSpans(w.spans)
	w.eaves = attack.NewEavesdrop(radio)
	return w.eaves.Start()
}

func (w *world) startPhysicsAndSampling(cfg platoon.Config) {
	var csv *trace.CSV
	if w.opts.TraceCSV != nil {
		var err error
		csv, err = trace.NewCSV(w.opts.TraceCSV,
			"t_s", "leader_speed", "max_spacing_err", "mean_spacing_err", "disbanded_frac")
		if err != nil {
			w.noteIO(err)
			csv = nil
		}
	}
	w.k.Every(0, 10*sim.Millisecond, "physics", func() {
		for _, v := range w.vehs {
			v.Dyn.Step(0.01)
		}
	})
	w.prevRoles = make([]message.Role, len(w.agents))
	for i, a := range w.agents {
		w.prevRoles[i] = a.Role()
	}
	w.k.Every(0, 100*sim.Millisecond, "sample", func() {
		w.samples++
		if w.events != nil {
			for i, a := range w.agents {
				if r := a.Role(); r != w.prevRoles[i] {
					//platoonvet:alloc-ok role changes are rare (join/leave/attack onset); the transition label is the point
					w.emit("role-change", a.ID(), w.prevRoles[i].String()+" → "+r.String())
					w.prevRoles[i] = r
				}
			}
		}
		members := 0
		down := 0
		worst := 0.0
		var sum float64
		var count int
		for i := 1; i < w.opts.Vehicles; i++ {
			a := w.agents[i]
			if a.Role() == message.RoleMember || a.Role() == message.RoleLeaving {
				members++
				if a.Disbanded() {
					down++
				}
				gap := w.vehs[i].Gap(w.vehs[i-1])
				e := math.Abs(gap - cfg.DesiredGap)
				if e > worst {
					worst = e
				}
				sum += e
				count++
			}
		}
		if count > 0 {
			w.spacing.Add(worst)
			w.meanSample.Add(sum / float64(count))
			if !w.spikeSeen && worst > 2.5 && w.k.Now() >= w.opts.AttackStart {
				// First gross spacing excursion after the attack armed:
				// the physical-effect endpoint, caused by (not parented
				// under — many frames contribute) the attack root.
				w.spikeSeen = true
				w.spanAdd(span.Span{
					Cause: w.attackRoot,
					Layer: obs.LayerScenario,
					Kind:  "scenario.spacing_spike",
					Value: worst,
				})
			}
		}
		if members > 0 {
			w.disbanded.Add(float64(down) / float64(members))
		}
		// Reform tracking: once any member has been knocked out, note
		// when the full roster is member again.
		if members < w.opts.Vehicles-1 {
			w.sawDamage = true
			w.reformedAt = 0
		} else if w.sawDamage && w.reformedAt == 0 {
			w.reformedAt = w.k.Now()
		}
		for i := 1; i < len(w.vehs); i++ {
			if w.vehs[i].Gap(w.vehs[i-1]) < 0 {
				w.collided[i] = true
			}
		}
		for i, v := range w.vehs {
			st := v.State()
			gap, _, ok := w.physGap(v)
			if !ok {
				gap = math.Inf(1)
			}
			w.fuel[i].Step(0.1, st.Speed, v.Dyn.Command(), gap)
		}
		if csv != nil {
			var worstNow, meanNow, downNow float64
			if count > 0 {
				worstNow = worst
				meanNow = sum / float64(count)
			}
			if members > 0 {
				downNow = float64(down) / float64(members)
			}
			w.noteIO(csv.Row(w.k.Now().Seconds(), w.vehs[0].State().Speed, worstNow, meanNow, downNow))
			w.noteIO(csv.Flush())
		}
	})
}

func (w *world) collect() *Result {
	r := &Result{
		AttackKey:   w.opts.AttackKey,
		Defense:     w.opts.Defense,
		Detections:  w.detections,
		FilterDrops: make(map[string]uint64),
	}
	r.MaxSpacingErr = w.spacing.Max()
	r.MeanSpacingErr = w.meanSample.Mean()
	r.DisbandedFrac = w.disbanded.Mean()
	for _, c := range w.collided {
		if c {
			r.Collisions++
		}
	}
	genuine := make(map[uint32]bool)
	for i := 0; i < w.opts.Vehicles; i++ {
		genuine[uint32(i+1)] = true
	}
	genuine[joinerID] = true
	for _, id := range w.agents[0].Roster() {
		if !genuine[id] {
			r.GhostMembers++
		}
	}
	for i := 1; i < w.opts.Vehicles; i++ {
		if w.agents[i].Role() != message.RoleMember {
			r.VictimsEjected++
		}
	}
	switch {
	case !w.sawDamage:
		r.ReformSeconds = 0
	case w.reformedAt > 0:
		r.ReformSeconds = (w.reformedAt - w.opts.AttackStart).Seconds()
	default:
		r.ReformSeconds = -1
	}
	// Largest surviving intra-platoon gap (phantom entrance damage).
	for i := 1; i < w.opts.Vehicles; i++ {
		if w.agents[i].Role() == message.RoleMember {
			if g := w.vehs[i].Gap(w.vehs[i-1]); g > r.PhantomGap {
				r.PhantomGap = g
			}
		}
	}

	st := w.bus.Stats()
	r.PDR = metrics.PDR(st.Delivered, st.Lost)
	r.BusyRatio = st.BusyAirtime.Seconds() / w.opts.Duration.Seconds()
	r.MACStuckDrops = st.StuckDrops
	if w.joiner != nil {
		r.JoinerAdmitted = w.joiner.Role() == message.RoleMember
	}
	r.JoinsDenied = w.agents[0].Counters().JoinsDenied

	r.EavesdropYield = w.eaves.InfoYield()
	r.EavesdropTracks = len(w.eaves.Tracks())

	for i := range w.vehs {
		r.FuelLitres += w.fuel[i].Litres()
	}
	r.DistanceKm = (w.vehs[0].State().Position - 2000) / 1000
	if r.DistanceKm > 0 {
		r.LitresPer100 = r.FuelLitres / float64(len(w.vehs)) / r.DistanceKm * 100
	}

	for _, a := range w.agents {
		c := a.Counters()
		r.VerifyDrops += c.VerifyDrops
		r.DecryptFailures += c.DecryptFailures
		for k, v := range c.FilterDrops {
			r.FilterDrops[k] += v
		}
	}
	if w.eval != nil {
		r.DetectionPrecision = w.eval.Precision()
		r.DetectionCoverage = w.eval.Coverage()
	} else {
		r.DetectionPrecision = 1
		r.DetectionCoverage = 1
	}
	r.Blacklisted = detmap.SortedKeys(w.blacklisted)
	r.Revoked = detmap.SortedKeys(w.revoked)
	if w.radio != nil {
		r.AttackerFrames = w.radio.Injected
	}
	r.EventsFired = w.k.EventsFired()
	if w.rec != nil {
		r.Obs = w.rec.Snapshot()
	}
	if w.spans != nil {
		st := w.spans.Stats()
		r.Spans = &st
		r.Forensics = span.BuildForensics(w.spans, span.DefaultEffects(), 3)
	}
	return r
}
