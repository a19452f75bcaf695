package world

import (
	"bytes"
	"strings"
	"testing"

	"platoonsec/internal/sim"
)

// small returns a quick world config for behavioural tests.
func small() Options {
	o := DefaultOptions()
	o.Duration = 30 * sim.Second
	o.Platoons = 12
	o.VehiclesPerPlatoon = 5
	o.FreeAgents = 8
	o.Shards = 2
	o.Workers = 2
	return o
}

// TestRunBaseline checks the baseline world produces a live frame
// economy and conserves the vehicle population, with roster
// invariants holding at every barrier.
func TestRunBaseline(t *testing.T) {
	o := small()
	o.normalize()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	w := build(o)
	wantVeh := o.Platoons*o.VehiclesPerPlatoon + o.FreeAgents
	if got := w.mgr.Vehicles(); got != wantVeh {
		t.Fatalf("built %d vehicles, want %d", got, wantVeh)
	}
	if err := w.run(w.mgr.CheckInvariants); err != nil {
		t.Fatal(err)
	}
	r := w.finalize()
	if r.Vehicles != wantVeh {
		t.Errorf("vehicle population drifted: %d, want %d", r.Vehicles, wantVeh)
	}
	if r.FramesTx == 0 || r.Delivered == 0 {
		t.Errorf("dead air: framesTx=%d delivered=%d", r.FramesTx, r.Delivered)
	}
	if r.PDR <= 0 || r.PDR > 1 {
		t.Errorf("PDR %v out of range", r.PDR)
	}
	if r.Jammed != 0 {
		t.Errorf("baseline counted %d jammed receptions", r.Jammed)
	}
	if r.Ghosts != 0 || r.Lifecycle.GhostAdmissions != 0 {
		t.Errorf("baseline grew ghosts: %d (%d admissions)", r.Ghosts, r.Lifecycle.GhostAdmissions)
	}
	if r.Epochs != uint64(o.Duration/o.Epoch) {
		t.Errorf("ran %d epochs, want %d", r.Epochs, o.Duration/o.Epoch)
	}
	if !strings.Contains(r.String(), "world attack=baseline") {
		t.Errorf("String() missing header:\n%s", r.String())
	}
}

// TestRunLifecycleActivity checks the lifecycle layer actually moves:
// junction crossings fire, and join traffic exists (admissions or
// denials) over a longer horizon.
func TestRunLifecycleActivity(t *testing.T) {
	o := small()
	o.Duration = 120 * sim.Second
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Lifecycle
	if c.JunctionCrossings == 0 {
		t.Error("no junction crossings in 120s")
	}
	if c.Leaves+c.Splits == 0 {
		t.Error("no junction exits in 120s")
	}
	if c.Joins+c.JoinDenials+c.Merges == 0 {
		t.Error("no admission traffic in 120s")
	}
	if r.Migrations == 0 {
		t.Error("no cross-shard migrations with 2 shards in 120s")
	}
}

// TestRunJamming checks the interchange jammer degrades near-junction
// delivery relative to baseline and attributes losses to the attack.
func TestRunJamming(t *testing.T) {
	o := small()
	base, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.AttackKey = "jamming"
	o.Spans = true
	jam, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if jam.Jammed == 0 {
		t.Fatal("jamming run counted zero jammed receptions")
	}
	if jam.NearPDR >= base.NearPDR {
		t.Errorf("near-junction PDR did not degrade: base %.3f, jammed %.3f", base.NearPDR, jam.NearPDR)
	}
	if jam.Spans == nil || jam.Forensics == nil {
		t.Fatal("spans enabled but Result.Spans/Forensics nil")
	}
	found := false
	for _, e := range jam.Forensics.Effects {
		if e.Kind == "world.frame_loss" && e.Attributed > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("forensics did not attribute any frame loss to the attack: %+v", jam.Forensics.Effects)
	}
}

// TestRunSybil checks ghosts infiltrate, are ejected by the audit,
// and hop between platoons, with the chain visible in forensics.
func TestRunSybil(t *testing.T) {
	o := small()
	o.Duration = 120 * sim.Second
	o.AttackKey = "sybil"
	o.Spans = true
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ghosts == 0 {
		t.Fatal("sybil run has no ghosts on the road")
	}
	c := r.Lifecycle
	if c.GhostAdmissions == 0 {
		t.Error("no ghost was admitted in 120s")
	}
	if c.GhostEjections == 0 {
		t.Error("no ghost was ejected in 120s")
	}
	if c.GhostHops == 0 {
		t.Error("no ghost hopped to a second platoon in 120s")
	}
	if r.Vehicles != o.Platoons*o.VehiclesPerPlatoon+o.FreeAgents {
		t.Errorf("ghosts perturbed the real vehicle count: %d", r.Vehicles)
	}
	found := false
	for _, e := range r.Forensics.Effects {
		if e.Kind == "world.roster_add" && e.Attributed > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("forensics did not attribute any roster_add to the attack: %+v", r.Forensics.Effects)
	}
}

// TestRunEventStream checks the JSONL stream is written and starts
// with the creation records.
func TestRunEventStream(t *testing.T) {
	o := small()
	o.Duration = 10 * sim.Second
	var buf bytes.Buffer
	o.EventsJSONL = &buf
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < o.Platoons+o.FreeAgents {
		t.Fatalf("only %d event lines", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"world.create"`) {
		t.Errorf("first event is not world.create: %s", lines[0])
	}
}

// TestOptionsValidate pins the validation errors.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"no platoons", func(o *Options) { o.Platoons = 0 }},
		{"no vehicles", func(o *Options) { o.VehiclesPerPlatoon = 0 }},
		{"negative free agents", func(o *Options) { o.FreeAgents = -1 }},
		{"no shards", func(o *Options) { o.Shards = 0 }},
		{"short duration", func(o *Options) { o.Duration = sim.Millisecond }},
		{"unknown attack", func(o *Options) { o.AttackKey = "nope" }},
		{"unmodelled attack", func(o *Options) { o.AttackKey = "replay" }},
		{"negative junctions", func(o *Options) { o.Junctions = -1 }},
		{"junctions closer than a step", func(o *Options) { o.Junctions = 5000 }},
		{"auto junctions closer than a step", func(o *Options) { o.Epoch, o.Duration = 200*sim.Second, 200*sim.Second }},
	}
	for _, tc := range cases {
		o := DefaultOptions()
		tc.mut(&o)
		if _, err := Run(o); err == nil {
			t.Errorf("%s: Run accepted invalid options", tc.name)
		}
	}
}

// TestSteadyStateEpochAllocFree pins the epoch's allocation rate: with
// spans and the timeline off, a warmed epoch — windowed delivery,
// mobility, beacons, the barrier's sorts and its frame codec round
// trip — allocates nothing. One worker keeps the shard fork/join
// inline (each extra worker is a goroutine spawn). The measured window
// must hold no roster mutation or migration: new units, rosters and
// decoded migration records legitimately allocate.
func TestSteadyStateEpochAllocFree(t *testing.T) {
	o := small()
	o.Shards, o.Workers = 2, 1
	o.FreeAgents = 0
	o.JunctionExitProb = 1e-12 // junction crossings, but no exits
	o.normalize()
	w := build(o)
	var start sim.Time
	epoch := func() {
		if err := w.runShards(start, start+o.Epoch); err != nil {
			t.Fatal(err)
		}
		if err := w.barrier(int64(start + o.Epoch)); err != nil {
			t.Fatal(err)
		}
		start += o.Epoch
	}
	// Warm up: every unit has beaconed and every scratch slice has
	// grown to its working size.
	for start < 3*sim.Second {
		epoch()
	}
	mutations := func() [3]uint64 {
		c := w.mgr.C
		return [3]uint64{c.Created, c.Joins + c.Merges + c.Leaves + c.Splits, w.migrations}
	}
	before, delivered := mutations(), w.delivered
	allocs := testing.AllocsPerRun(50, epoch)
	if after := mutations(); after != before {
		t.Fatalf("measured window is not steady state: (created, roster changes, migrations) went %v → %v", before, after)
	}
	if w.delivered == delivered {
		t.Fatal("no frame was delivered in the measured window")
	}
	if allocs != 0 {
		t.Errorf("a steady-state epoch allocates %v times, want 0", allocs)
	}
}

// TestShardPanicBecomesError pins the fork/join's failure path: a
// panicking shard surfaces as a run error naming the shard step, not
// as a crashed process.
func TestShardPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 2} {
		o := small()
		o.Workers = workers
		o.normalize()
		w := build(o)
		w.shards[1].onEpoch = func() { panic("boom") }
		err := w.run(nil)
		if err == nil || !strings.Contains(err.Error(), "world: shard step: engine: run 1 panicked: boom") {
			t.Errorf("workers=%d: want the shard panic as an error, got %v", workers, err)
		}
	}
}
