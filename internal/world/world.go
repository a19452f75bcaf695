// Package world is the multi-platoon highway substrate: a ring road
// spatially sharded into kernel regions, each shard running its own
// deterministic simulation stack, synchronised by a barrier epoch
// protocol that hands frames and migrating units across shard
// boundaries in canonical order. Results are byte-identical at any
// shard count and any engine worker count; DESIGN.md §10 states the
// contract and the construction that delivers it:
//
//   - every frame — intra- and cross-shard — travels through the
//     epoch exchange as codec bytes and is delivered in canonical
//     (tx time, sender, sequence) order the following epoch;
//   - all randomness is counter-keyed per unit (see dice), so a
//     unit's draws are a pure function of its own history, not of
//     which kernel hosts it or what shares that kernel;
//   - lifecycle mutations are proposed by shards and applied by the
//     PlatoonManager at the barrier in canonical proposal order;
//   - spans and JSONL events are recorded only on the coordinator
//     goroutine, in canonical order, so span IDs are stable.
//
// Shards execute in parallel on the experiment engine's worker pool;
// within an epoch they share nothing but the immutable previous-epoch
// air, so worker scheduling cannot reorder anything observable.
package world

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"platoonsec/internal/engine"
	"platoonsec/internal/mac"
	"platoonsec/internal/obs"
	"platoonsec/internal/obs/span"
	"platoonsec/internal/obs/timeline"
	"platoonsec/internal/phy"
	"platoonsec/internal/sim"
	"platoonsec/internal/trace"
)

// Options configures one world run.
type Options struct {
	// Seed drives every counter-keyed draw.
	Seed int64
	// Duration is the simulated time span; Epoch the barrier period.
	Duration sim.Time
	Epoch    sim.Time
	// Shards is the number of ring arcs, each with its own kernel
	// stack; Workers bounds the engine pool stepping them (<=0:
	// GOMAXPROCS). Neither changes any observable.
	Shards  int
	Workers int
	// Platoons and VehiclesPerPlatoon size the initial population;
	// FreeAgents adds unaffiliated vehicles that seek admission.
	Platoons           int
	VehiclesPerPlatoon int
	FreeAgents         int
	// RingLengthM is the road length (0 = auto-sized from the
	// population); Junctions the interchange count (0 = auto).
	RingLengthM float64
	Junctions   int
	// MaxPlatoonSize bounds rosters (0 = twice VehiclesPerPlatoon).
	MaxPlatoonSize int
	// Physical and protocol constants (zero = default).
	VehicleLenM      float64
	GapM             float64
	CruiseMS         float64
	MaxAccelMS2      float64
	GapCloseMS       float64
	SafeGapM         float64
	RadioRangeM      float64
	JoinRangeM       float64
	MergeGapM        float64
	JamRadiusM       float64
	TxPowerDBm       float64
	FrameBytes       int
	JunctionExitProb float64
	// AttackKey selects the attack ("", "jamming", "sybil");
	// AttackStart when it arms. JammerPowerDBm and SybilGhosts
	// override the attack defaults (0 = default).
	AttackKey      string
	AttackStart    sim.Time
	JammerPowerDBm float64
	SybilGhosts    int
	// Spans enables causal provenance (Result.Spans/Forensics);
	// SpanCapacity overrides the store bound.
	Spans        bool
	SpanCapacity int
	// EventsJSONL, when non-nil, receives the canonical lifecycle
	// event stream (byte-identical at any shard/worker count).
	EventsJSONL io.Writer
	// Timeline enables a per-epoch metrics timeline in the Result:
	// one sample per barrier, indexed by simulated end time, carrying
	// only partition-invariant counters (frames, deliveries, losses,
	// unit ticks — never migrations), so enabling it cannot change
	// any other observable. TimelineCapacity bounds the sample ring
	// (0 = timeline.DefaultCapacity).
	Timeline         bool
	TimelineCapacity int
	// WallClock, when non-nil, adds wall-timing gauges to each
	// timeline sample: epoch wall milliseconds, the slowest shard's
	// step milliseconds and the barrier's own milliseconds. Wall
	// timings are inherently nondeterministic, so WallClock must stay
	// nil when timeline bytes themselves must be reproducible; the
	// rest of the Result is unaffected either way.
	WallClock func() int64
}

// DefaultOptions returns a 40-platoon, 60-second world.
func DefaultOptions() Options {
	return Options{
		Seed:               1,
		Duration:           60 * sim.Second,
		Epoch:              100 * sim.Millisecond,
		Shards:             1,
		Platoons:           40,
		VehiclesPerPlatoon: 8,
		FreeAgents:         10,
		AttackStart:        10 * sim.Second,
	}
}

// normalize fills zero-valued knobs with defaults and derives the
// auto-sized geometry.
func (o *Options) normalize() {
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&o.VehicleLenM, 4.5)
	def(&o.GapM, 8)
	def(&o.CruiseMS, 30)
	def(&o.MaxAccelMS2, 2.5)
	def(&o.GapCloseMS, 1.0)
	def(&o.SafeGapM, 60)
	def(&o.RadioRangeM, 500)
	def(&o.JoinRangeM, 300)
	def(&o.MergeGapM, 150)
	def(&o.JamRadiusM, 1000)
	def(&o.TxPowerDBm, 23)
	def(&o.JunctionExitProb, 0.25)
	if o.FrameBytes == 0 {
		o.FrameBytes = 300
	}
	if o.Epoch == 0 {
		o.Epoch = 100 * sim.Millisecond
	}
	if o.MaxPlatoonSize == 0 {
		o.MaxPlatoonSize = 2 * o.VehiclesPerPlatoon
	}
	if o.RingLengthM == 0 {
		// Room for each platoon's physical extent plus headway to
		// keep initial density below saturation.
		perPlatoon := float64(o.VehiclesPerPlatoon)*(o.VehicleLenM+o.GapM) + 300
		o.RingLengthM = float64(o.Platoons) * perPlatoon
		if o.RingLengthM < 5000 {
			o.RingLengthM = 5000
		}
	}
	if o.Junctions == 0 {
		o.Junctions = o.Platoons / 10
		if o.Junctions < 4 {
			o.Junctions = 4
		}
	}
}

// maxSpeedFactor bounds every unit's speed as a multiple of CruiseMS:
// cruiseFor spreads cruise speeds over ±8% and every other target is
// at most one of those; the margin keeps the bound clear of rounding.
const maxSpeedFactor = 1.1

// Validate rejects configurations the world cannot run. It checks a
// normalized copy, so callers need not normalize first.
func (o Options) Validate() error {
	o.normalize()
	if o.Platoons < 1 {
		return fmt.Errorf("world: need at least 1 platoon, got %d", o.Platoons)
	}
	if o.VehiclesPerPlatoon < 1 {
		return fmt.Errorf("world: need at least 1 vehicle per platoon, got %d", o.VehiclesPerPlatoon)
	}
	if o.FreeAgents < 0 || o.SybilGhosts < 0 || o.Junctions < 0 {
		return fmt.Errorf("world: negative count: %d free agents, %d sybil ghosts, %d junctions", o.FreeAgents, o.SybilGhosts, o.Junctions)
	}
	if o.Shards < 1 {
		return fmt.Errorf("world: need at least 1 shard, got %d", o.Shards)
	}
	if o.Epoch <= 0 || o.Duration < o.Epoch {
		return fmt.Errorf("world: duration %v must cover at least one epoch %v", o.Duration, o.Epoch)
	}
	if o.VehiclesPerPlatoon > MaxWireMembers {
		return fmt.Errorf("world: %d vehicles per platoon exceeds codec bound %d", o.VehiclesPerPlatoon, MaxWireMembers)
	}
	// A unit's step in one epoch must not span a junction spacing:
	// crossedJunction reports one junction per step, and a longer step
	// would both skip junction events and fall back to a scan over
	// every junction for every unit.
	if step := maxSpeedFactor * o.CruiseMS * o.Epoch.Seconds(); float64(o.Junctions)*step > o.RingLengthM {
		return fmt.Errorf("world: %d junctions on a %.0f m ring are closer than one epoch's %.1f m step (at most %d)",
			o.Junctions, o.RingLengthM, step, int(o.RingLengthM/step))
	}
	return validAttackKey(o.AttackKey)
}

// World is one run's state: the shard set, the lifecycle manager and
// the coordinator-side exchange buffers.
type World struct {
	opts   Options
	ring   ring
	mgr    *Manager
	shards []*shard

	// The epoch the shards are stepping (read-only while they run),
	// and stepShard bound once so the per-epoch fork/join allocates
	// nothing.
	epochStart, epochEnd sim.Time
	stepFn               func(int)

	// air is the canonical frame list delivered during the current
	// epoch (immutable while shards run).
	air []Frame

	// Barrier scratch, reused across epochs.
	collect []txFrame
	intbuf  []intent
	propbuf []proposal
	moves   []*Unit
	encBuf  []byte

	spans   *span.Store
	spansOn bool
	armed   bool
	jamSpan span.ID

	events    *trace.JSONL
	eventsErr error

	beaconPeriodNS int64
	staleNS        int64
	joinTimeoutNS  int64
	actCooldownNS  int64
	ghostTTLNS     int64

	framesTx, delivered, lost, jammed uint64
	nearTx, nearOK, farTx, farOK      uint64
	unitTicks, epochs, migrations     uint64
	airtimeNS                         int64

	// Timeline recorder (nil unless Options.Timeline). The registry
	// instruments are nil-safe, so the disabled path costs nothing.
	tl              *timeline.Timeline
	tlReg           *obs.Registry
	tlFramesTx      *obs.Counter
	tlDelivered     *obs.Counter
	tlLost          *obs.Counter
	tlJammed        *obs.Counter
	tlUnitTicks     *obs.Counter
	tlRangeChecks   *obs.Counter
	tlUnits         *obs.Gauge
	tlEpochWallMS   *obs.Gauge
	tlShardStepMS   *obs.Gauge
	tlBarrierWallMS *obs.Gauge
	barrierWallNS   int64 // last barrier's wall time (WallClock only)
}

// Run executes one world experiment, deterministic in Options alone
// (Shards and Workers excluded by construction).
func Run(o Options) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o.normalize()
	w := build(o)
	if err := w.run(nil); err != nil {
		return nil, err
	}
	return w.finalize(), nil
}

// run drives the epoch loop. check, when non-nil, is called after
// every barrier (tests hang invariant checks there).
func (w *World) run(check func() error) error {
	o := &w.opts
	for start := sim.Time(0); start < o.Duration; start += o.Epoch {
		end := start + o.Epoch
		if end > o.Duration {
			end = o.Duration
		}
		var wallStart int64
		if o.WallClock != nil {
			wallStart = o.WallClock()
		}
		if err := w.runShards(start, end); err != nil {
			return err
		}
		var barrierStart int64
		if o.WallClock != nil {
			barrierStart = o.WallClock()
		}
		if err := w.barrier(int64(end)); err != nil {
			return err
		}
		if o.WallClock != nil {
			w.barrierWallNS = o.WallClock() - barrierStart
		}
		w.sampleTimeline(int64(end), wallStart)
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
	}
	if w.eventsErr != nil {
		return fmt.Errorf("world: event stream: %w", w.eventsErr)
	}
	return nil
}

// build assembles the shard set and the initial population.
func build(o Options) *World {
	w := &World{
		opts:           o,
		ring:           newRing(o.RingLengthM, o.Junctions),
		mgr:            NewManager(o.MaxPlatoonSize, o.VehicleLenM),
		beaconPeriodNS: int64(sim.Second),
		staleNS:        int64(3 * sim.Second),
		joinTimeoutNS:  int64(3 * sim.Second),
		actCooldownNS:  int64(2 * sim.Second),
		ghostTTLNS:     int64(ghostTTL),
	}
	if o.Spans {
		w.spans = span.NewStore(o.SpanCapacity)
		w.spansOn = true
	}
	if o.EventsJSONL != nil {
		w.events = trace.NewJSONL(o.EventsJSONL)
	}
	if o.Timeline {
		w.tl = timeline.New(timeline.Config{Capacity: o.TimelineCapacity})
		w.tlReg = obs.NewRegistry()
		w.tlFramesTx = w.tlReg.Counter("world.frames_tx")
		w.tlDelivered = w.tlReg.Counter("world.delivered")
		w.tlLost = w.tlReg.Counter("world.lost")
		w.tlJammed = w.tlReg.Counter("world.jammed")
		w.tlUnitTicks = w.tlReg.Counter("world.unit_ticks")
		w.tlRangeChecks = w.tlReg.Counter("world.range_checks")
		w.tlUnits = w.tlReg.Gauge("world.units")
		if o.WallClock != nil {
			w.tlEpochWallMS = w.tlReg.Gauge("world.epoch_wall_ms")
			w.tlShardStepMS = w.tlReg.Gauge("world.shard_step_ms_max")
			w.tlBarrierWallMS = w.tlReg.Gauge("world.barrier_wall_ms")
		}
	}
	env := phy.DefaultEnvironment()
	env.RayleighFading = false // world propagation is deterministic math
	env.ShadowSigmaDB = 0      // (loss randomness is per-unit counter-keyed)
	w.stepFn = w.stepShard
	for i := 0; i < o.Shards; i++ {
		k := sim.NewKernel(o.Seed)
		s := &shard{
			w:   w,
			idx: i,
			k:   k,
			ch:  phy.NewChannel(env, k.Stream("phy")),
			cfg: mac.DefaultConfig(),
			jam: w.buildJammer(),
		}
		s.onEpoch = s.tick
		w.shards = append(w.shards, s)
	}
	// Initial population: platoons evenly spaced, then free agents on
	// the half-offsets. Creation order fixes unit IDs and vehicle
	// identities.
	veh := uint32(0)
	nextVeh := func() uint32 { veh++; return veh }
	for i := 0; i < o.Platoons; i++ {
		u := Unit{
			LeaderVeh: nextVeh(),
			PosM:      w.ring.wrap(float64(i) * w.ring.lengthM / float64(o.Platoons)),
			GapM:      o.GapM,
		}
		if n := o.VehiclesPerPlatoon - 1; n > 0 {
			u.Members = make([]uint32, n)
			for j := range u.Members {
				u.Members[j] = nextVeh()
			}
		}
		w.place(&u)
	}
	for i := 0; i < o.FreeAgents; i++ {
		u := Unit{
			LeaderVeh: nextVeh(),
			PosM:      w.ring.wrap((float64(i) + 0.5) * w.ring.lengthM / float64(max(o.FreeAgents, 1))),
			GapM:      o.GapM,
		}
		w.place(&u)
	}
	return w
}

// place finalizes a new unit's derived state, registers it with the
// manager and assigns it to its home shard.
func (w *World) place(tmpl *Unit) *Unit {
	u := w.mgr.Create(*tmpl)
	u.SpeedMS = w.cruiseFor(u)
	u.TargetMS = u.SpeedMS
	// Stagger first beacons across the first period so the initial
	// epoch is not one synchronized burst.
	u.BeaconAtNS = int64(dice(w.opts.Seed, u.ID, tagBeacon) * float64(w.beaconPeriodNS))
	w.assign(u)
	w.event(0, "world.create", u.ID, uint32(u.Size()), "")
	return u
}

// Dice tags outside the per-unit draw counter range (draw() counts up
// from 1; these are fixed derived attributes).
const (
	tagCruise uint64 = 1<<63 + iota
	tagBeacon
)

// cruiseFor returns the unit's personal cruise speed: a fixed ±8%
// spread around the configured cruise, so free agents genuinely catch
// up with (and platoons drift apart from) one another. It is a pure
// function of the seed, ID and Ghost, so it is computed once per unit
// and cached on it.
func (w *World) cruiseFor(u *Unit) float64 {
	if u.cruiseMS == 0 {
		u.cruiseMS = w.opts.CruiseMS
		if !u.Ghost {
			u.cruiseMS *= 0.92 + 0.16*dice(w.opts.Seed, u.ID, tagCruise)
		}
	}
	return u.cruiseMS
}

// shardIdx maps a ring position to its home shard.
func (w *World) shardIdx(posM float64) int {
	i := int(posM / w.ring.lengthM * float64(len(w.shards)))
	if i < 0 {
		i = 0
	}
	if i >= len(w.shards) {
		i = len(w.shards) - 1
	}
	return i
}

// assign homes u on the shard owning its position.
func (w *World) assign(u *Unit) {
	w.shards[w.shardIdx(u.PosM)].addUnit(u)
}

// unassign releases id from whichever shard owns it: its home shard,
// or the shard it is leaving this barrier.
func (w *World) unassign(id uint32) {
	for _, s := range w.shards {
		if s.removeUnit(id) {
			return
		}
	}
}

// runShards steps every shard through [start, end) on the engine's
// fork/join. Shards share nothing mid-epoch, so worker count and
// scheduling cannot change any observable.
func (w *World) runShards(start, end sim.Time) error {
	w.epochStart, w.epochEnd = start, end
	if err := engine.ForEach(w.opts.Workers, len(w.shards), w.stepFn); err != nil {
		return fmt.Errorf("world: shard step: %w", err)
	}
	return nil
}

// stepShard steps shard i through the current epoch, timing it when a
// WallClock is injected.
func (w *World) stepShard(i int) {
	s := w.shards[i]
	if wc := w.opts.WallClock; wc != nil {
		t0 := wc()
		s.step()
		s.wallNS = wc() - t0
		return
	}
	s.step()
}

// barrier is the coordinator phase between epochs: drain intents,
// collect and span frames, apply lifecycle proposals, arm attacks,
// fold shard counters, migrate units, and put the next epoch's
// frames on the air — all in canonical order on one goroutine.
func (w *World) barrier(endNS int64) error {
	w.epochs++

	// 1. Intents, in canonical (time, unit, seq) order. Span-worthy
	// intents record spans; their IDs resolve same-epoch causeRefs.
	intents := w.intbuf[:0]
	for _, s := range w.shards {
		intents = append(intents, s.intents...)
		s.intents = s.intents[:0]
	}
	slices.SortFunc(intents, func(a, b intent) int {
		return cmp.Or(cmp.Compare(a.atNS, b.atNS), cmp.Compare(a.unit, b.unit), cmp.Compare(a.seq, b.seq))
	})
	var refs map[uint64]span.ID
	for i := range intents {
		it := &intents[i]
		var id span.ID
		if w.spansOn && it.kind != "world.gap_restored" {
			id = w.spans.Add(span.Span{
				Parent:  it.parent,
				Cause:   it.cause,
				AtNS:    it.atNS,
				Layer:   obs.LayerScenario,
				Kind:    it.kind,
				Subject: it.unit,
				Value:   it.value,
			})
			if refs == nil {
				refs = make(map[uint64]span.ID, len(intents))
			}
			refs[uint64(it.unit)<<32|it.seq&0xffffffff] = id
		}
		if it.kind != "world.frame_loss" {
			w.event(it.atNS, it.kind, it.unit, it.other, "")
		}
	}
	w.intbuf = intents[:0]

	// 2. Frames, in canonical (time, sender, sequence) order.
	// Lifecycle frames get transmit spans, threading either a
	// concrete cause or a same-epoch intent reference (the one-shot
	// deny-span threading).
	frames := w.collect[:0]
	for _, s := range w.shards {
		frames = append(frames, s.outbox...)
		s.outbox = s.outbox[:0]
	}
	slices.SortFunc(frames, func(a, b txFrame) int {
		return cmp.Or(cmp.Compare(a.AtNS, b.AtNS), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Seq, b.Seq))
	})
	w.framesTx += uint64(len(frames))
	w.tlFramesTx.Add(uint64(len(frames)))
	if w.spansOn {
		for i := range frames {
			f := &frames[i]
			if f.Kind == FrameBeacon {
				continue
			}
			parent := f.cause
			if parent == 0 && f.causeRef != 0 {
				parent = refs[f.causeRef]
			}
			f.Span = w.spans.Add(span.Span{
				Parent:  parent,
				AtNS:    f.AtNS,
				Layer:   obs.LayerScenario,
				Kind:    "world.tx",
				Subject: f.SrcVeh,
			})
		}
	}

	// 3. Lifecycle proposals, in canonical order, applied by the
	// manager.
	props := w.propbuf[:0]
	for _, s := range w.shards {
		props = append(props, s.proposals...)
		s.proposals = s.proposals[:0]
	}
	slices.SortFunc(props, func(a, b proposal) int {
		return cmp.Or(cmp.Compare(a.atNS, b.atNS), cmp.Compare(a.unit, b.unit), cmp.Compare(a.seq, b.seq),
			cmp.Compare(a.other, b.other), cmp.Compare(a.kind, b.kind))
	})
	for i := range props {
		w.applyProposal(&props[i])
	}
	w.propbuf = props[:0]

	// 4. Attack lifecycle.
	w.arm(endNS)
	w.auditGhosts(endNS)

	// 5. Fold shard accounting into the invariant totals. The
	// timeline registry mirrors only the partition-invariant sums
	// (the per-shard split, and migrations, stay out of it).
	for _, s := range w.shards {
		w.tlDelivered.Add(s.delivered)
		w.tlLost.Add(s.lost)
		w.tlJammed.Add(s.jammed)
		w.tlUnitTicks.Add(s.unitTicks)
		w.tlRangeChecks.Add(s.rangeChecks)
		w.delivered += s.delivered
		w.lost += s.lost
		w.jammed += s.jammed
		w.nearTx += s.nearTx
		w.nearOK += s.nearOK
		w.farTx += s.farTx
		w.farOK += s.farOK
		w.unitTicks += s.unitTicks
		w.airtimeNS += s.airtimeNS
		w.mgr.C.JoinDenials += s.denials
		w.mgr.C.GapRestores += s.gapRestores
		s.delivered, s.lost, s.jammed = 0, 0, 0
		s.nearTx, s.nearOK, s.farTx, s.farOK = 0, 0, 0, 0
		s.unitTicks, s.airtimeNS, s.rangeChecks = 0, 0, 0
		s.denials, s.gapRestores = 0, 0
	}

	// 6. Migrate the units the shards reported outside their arcs,
	// in unit-ID order, through the handoff codec. Only a shard's
	// move changes a position, and the barrier homes every unit it
	// creates by position, so these are all the misplaced units.
	moves := w.moves[:0]
	for _, s := range w.shards {
		moves = append(moves, s.leaving...)
		clear(s.leaving)
		s.leaving = s.leaving[:0]
	}
	slices.SortFunc(moves, func(a, b *Unit) int { return cmp.Compare(a.ID, b.ID) })
	for _, u := range moves {
		if w.mgr.Get(u.ID) != u {
			continue // absorbed by a join or merge at step 3
		}
		w.encBuf = u.AppendTo(w.encBuf[:0])
		if err := DecodeUnit(w.encBuf, u); err != nil {
			return fmt.Errorf("world: migrating unit %d: %w", u.ID, err)
		}
		w.unassign(u.ID)
		w.assign(u)
		w.migrations++
	}
	clear(moves)
	w.moves = moves[:0]

	// 7. Put the epoch's frames on the air for next epoch's ticks,
	// through the same codec bytes a cross-shard hop would use.
	w.air = w.air[:0]
	for i := range frames {
		w.encBuf = frames[i].Frame.AppendTo(w.encBuf[:0])
		var f Frame
		if err := DecodeFrame(w.encBuf, &f); err != nil {
			return fmt.Errorf("world: routing frame from unit %d: %w", frames[i].Src, err)
		}
		w.air = append(w.air, f)
	}
	w.collect = frames[:0]
	return nil
}

// applyProposal validates and applies one lifecycle mutation.
// Failures (the counterpart vanished this epoch, capacity raced with
// an earlier canonical proposal) are counted, not fatal: the shards
// proposed against last epoch's state and the manager is the
// authority.
func (w *World) applyProposal(p *proposal) {
	m := w.mgr
	switch p.kind {
	case propJunction:
		m.C.JunctionCrossings++
		w.event(p.atNS, "world.junction", p.unit, p.other, "")
	case propJoin:
		joiner := m.Get(p.other)
		if joiner == nil {
			m.C.RejectedProposals++
			return
		}
		joinerVeh := joiner.LeaderVeh
		if err := m.Join(p.other, p.unit); err != nil {
			m.C.RejectedProposals++
			return
		}
		w.unassign(p.other)
		if host := m.Get(p.unit); host != nil {
			host.LastSpan = w.spanAdd(span.Span{
				Parent:  p.cause,
				AtNS:    p.atNS,
				Layer:   obs.LayerScenario,
				Kind:    "world.roster_add",
				Subject: joinerVeh,
			})
		}
		w.event(p.atNS, "world.join", p.unit, p.other, "")
	case propAdmitGhost:
		g := m.Get(p.other)
		if g == nil || m.AdmitGhost(p.other, p.unit, p.atNS) != nil {
			m.C.RejectedProposals++
			return
		}
		g.LastSpan = w.spanAdd(span.Span{
			Parent:  p.cause,
			AtNS:    p.atNS,
			Layer:   obs.LayerScenario,
			Kind:    "world.roster_add",
			Subject: g.LeaderVeh,
			Detail:  "ghost",
		})
		w.event(p.atNS, "world.ghost_admit", p.unit, p.other, "")
	case propMerge:
		if err := m.Merge(p.unit, p.other); err != nil {
			m.C.RejectedProposals++
			return
		}
		w.unassign(p.other)
		if front := m.Get(p.unit); front != nil {
			front.LastSpan = w.spanAdd(span.Span{
				Parent:  p.cause,
				AtNS:    p.atNS,
				Layer:   obs.LayerScenario,
				Kind:    "world.merge",
				Subject: p.unit,
			})
		}
		w.event(p.atNS, "world.merge", p.unit, p.other, "")
	case propSplit, propLeave:
		var nu *Unit
		var err error
		kind, ev := "world.split", "world.split"
		if p.kind == propLeave {
			nu, err = m.Leave(p.unit)
			kind, ev = "world.split", "world.leave"
		} else {
			nu, err = m.Split(p.unit, p.idx)
		}
		if err != nil {
			m.C.RejectedProposals++
			return
		}
		nu.PosM = w.ring.wrap(nu.PosM)
		nu.TargetMS = p.targetMS
		nu.BeaconAtNS = p.atNS
		nu.LastSpan = w.spanAdd(span.Span{
			AtNS:    p.atNS,
			Layer:   obs.LayerScenario,
			Kind:    kind,
			Subject: nu.ID,
		})
		w.assign(nu)
		w.event(p.atNS, ev, p.unit, nu.ID, "")
	}
}

// sampleTimeline records one per-epoch sample at the simulated end
// time (no-op unless Options.Timeline). Counter deltas were fed at
// the barrier; here the point-in-time gauges are refreshed — the unit
// population, and the wall timings when a WallClock is injected.
func (w *World) sampleTimeline(endNS, wallStart int64) {
	if w.tl == nil {
		return
	}
	w.tlUnits.Set(float64(w.mgr.Len()))
	if wc := w.opts.WallClock; wc != nil {
		w.tlEpochWallMS.Set(float64(wc()-wallStart) / 1e6)
		w.tlBarrierWallMS.Set(float64(w.barrierWallNS) / 1e6)
		var maxNS int64
		for _, s := range w.shards {
			if s.wallNS > maxNS {
				maxNS = s.wallNS
			}
		}
		w.tlShardStepMS.Set(float64(maxNS) / 1e6)
	}
	w.tl.Record(endNS, w.tlReg.Snapshot())
}

// spanAdd records one world-layer span (0 when tracing is off).
func (w *World) spanAdd(sp span.Span) span.ID {
	if !w.spansOn {
		return 0
	}
	return w.spans.Add(sp)
}

// event writes one canonical JSONL line (no-op without a writer; the
// first write error is latched and surfaced by Run).
func (w *World) event(tNS int64, kind string, unit, other uint32, detail string) {
	if w.events == nil || w.eventsErr != nil {
		return
	}
	w.eventsErr = w.events.Event(worldEvent{TNS: tNS, Kind: kind, Unit: unit, Other: other, Detail: detail})
}

// finalize reduces the run to its Result.
func (w *World) finalize() *Result {
	r := &Result{
		AttackKey:  w.opts.AttackKey,
		Vehicles:   w.mgr.Vehicles(),
		Lifecycle:  w.mgr.C,
		FramesTx:   w.framesTx,
		Delivered:  w.delivered,
		Lost:       w.lost,
		Jammed:     w.jammed,
		AirtimeS:   float64(w.airtimeNS) / 1e9,
		UnitTicks:  w.unitTicks,
		Epochs:     w.epochs,
		Migrations: w.migrations,
	}
	for _, id := range w.mgr.Order() {
		u := w.mgr.Get(id)
		switch {
		case u.Ghost:
			r.Ghosts++
		case len(u.Members) > 0:
			r.Platoons++
		default:
			r.FreeAgents++
		}
	}
	if att := w.delivered + w.lost; att > 0 {
		r.PDR = float64(w.delivered) / float64(att)
	}
	if w.nearTx > 0 {
		r.NearPDR = float64(w.nearOK) / float64(w.nearTx)
	}
	if w.farTx > 0 {
		r.FarPDR = float64(w.farOK) / float64(w.farTx)
	}
	if w.spansOn {
		st := w.spans.Stats()
		r.Spans = &st
		r.Forensics = span.BuildForensics(w.spans, Effects(), 3)
	}
	if w.tl != nil {
		r.Timeline = w.tl.Export()
	}
	return r
}
