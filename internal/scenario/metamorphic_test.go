package scenario

// Metamorphic determinism gate for the experiment engine: parallel
// sweep output must be indistinguishable — down to the JSON bytes —
// from serial Run output, for every defense preset, at any worker
// count. This is the test-level statement of the invariant that
// parallelism lives strictly above run boundaries.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"platoonsec/internal/obs"
	"platoonsec/internal/sim"
)

// presetOpts returns one representative experiment per preset in
// presets.go (each Table III mechanism pack plus the full stack),
// paired with an attack the mechanism claims to counter.
func presetOpts(t *testing.T) []Options {
	t.Helper()
	cases := []struct{ mech, attack string }{
		{"keys", "replay"},
		{"rsu", "impersonation"},
		{"control-algorithms", "fake-maneuver"},
		{"hybrid-comms", "jamming"},
		{"onboard", "sensor-spoofing"},
	}
	var out []Options
	for _, c := range cases {
		pack, err := PackForMechanism(c.mech)
		if err != nil {
			t.Fatalf("preset %s: %v", c.mech, err)
		}
		o := DefaultOptions()
		o.Duration = 15 * sim.Second
		o.Vehicles = 6
		o.AttackKey = c.attack
		o.Defense = pack
		// Observability and span tracing ride along so the determinism
		// gate also covers Result.Obs, Result.Spans and Result.Forensics:
		// instrumentation must not perturb any observable.
		o.Observe = true
		o.ObsMinLevel = obs.LevelDebug
		o.Spans = true
		out = append(out, o)
	}
	// The full defense stack against a membership attack rounds out
	// the preset list.
	o := DefaultOptions()
	o.Duration = 15 * sim.Second
	o.Vehicles = 6
	o.AttackKey = "sybil"
	o.WithJoiner = true
	o.Defense = AllDefenses()
	o.Observe = true
	o.ObsMinLevel = obs.LevelDebug
	o.Spans = true
	return append(out, o)
}

func TestEngineMatchesSerialAllPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every preset at three worker counts")
	}
	optsList := presetOpts(t)

	serial := make([]*Result, len(optsList))
	serialJSON := make([][]byte, len(optsList))
	for i, o := range optsList {
		r, err := Run(o)
		if err != nil {
			t.Fatalf("serial run %d (%s): %v", i, o.AttackKey, err)
		}
		// PKI presets must exercise the run's verify memos, so the
		// parallel comparison below also covers the memo state that
		// hangs off each run's CA.
		if o.Defense.PKI && (r.Obs.Counters["security.verify"] == 0 || r.Obs.Counters["security.verdict_memo_hits"] == 0) {
			t.Fatalf("serial run %d (%s): security counters %v, want verifies and memo hits", i, o.AttackKey, r.Obs.Counters)
		}
		serial[i] = r
		serialJSON[i], err = json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal serial %d: %v", i, err)
		}
	}

	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		res, err := Sweep(optsList, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range res {
			if !reflect.DeepEqual(res[i], serial[i]) {
				t.Errorf("workers=%d preset %d (%s): result differs from serial Run",
					workers, i, optsList[i].AttackKey)
			}
			got, err := json.Marshal(res[i])
			if err != nil {
				t.Fatalf("marshal workers=%d preset %d: %v", workers, i, err)
			}
			if !bytes.Equal(got, serialJSON[i]) {
				t.Errorf("workers=%d preset %d (%s): JSON bytes differ from serial",
					workers, i, optsList[i].AttackKey)
			}
		}
	}
}

func TestSweepJSONLStreamIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the preset list twice")
	}
	optsList := presetOpts(t)
	var streams [][]byte
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		rep := SweepReport(context.Background(), optsList, SweepConfig{
			Workers: workers, Results: &buf, DiscardResults: true,
		})
		if rep.Err != nil || rep.SinkErr != nil {
			t.Fatalf("workers=%d: err=%v sinkErr=%v", workers, rep.Err, rep.SinkErr)
		}
		if rep.Results != nil {
			t.Fatalf("workers=%d: results retained despite DiscardResults", workers)
		}
		if rep.Telemetry.Events == 0 {
			t.Errorf("workers=%d: telemetry recorded zero kernel events", workers)
		}
		streams = append(streams, buf.Bytes())
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Error("JSONL stream bytes differ between workers=1 and workers=4")
	}
}

// TestChromeTraceIdenticalAcrossWorkerCounts pins the flight-recorder
// invariant from DESIGN.md: because every record timestamp is a copy of
// sim.Time and runs never share a recorder, the exported Chrome-trace
// bytes for each run are identical at any worker count.
func TestChromeTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every preset at three worker counts")
	}
	if raceEnabled {
		t.Skip("byte-identity adds nothing under the race detector; the observed sweep paths are raced by TestEngineMatchesSerialAllPresets")
	}
	base := presetOpts(t)

	traces := func(workers int) [][]byte {
		t.Helper()
		bufs := make([]*bytes.Buffer, len(base))
		optsList := make([]Options, len(base))
		for i, o := range base {
			bufs[i] = &bytes.Buffer{}
			o.ChromeTrace = bufs[i]
			optsList[i] = o
		}
		if _, err := Sweep(optsList, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := make([][]byte, len(bufs))
		for i, b := range bufs {
			out[i] = b.Bytes()
		}
		return out
	}

	want := traces(1)
	for i, tr := range want {
		if len(tr) == 0 {
			t.Fatalf("preset %d (%s): empty Chrome trace", i, base[i].AttackKey)
		}
		if !json.Valid(tr) {
			t.Fatalf("preset %d (%s): Chrome trace is not valid JSON", i, base[i].AttackKey)
		}
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := traces(workers)
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("workers=%d preset %d (%s): Chrome trace bytes differ from workers=1",
					workers, i, base[i].AttackKey)
			}
		}
	}
}

// TestObserveDoesNotPerturbRun pins instrumentation transparency: a run
// with the flight recorder AND span tracing attached (at the most
// verbose admission level) must produce exactly the same Result, minus
// the Obs snapshot and span accounting, as the same run without them.
// Instrumentation draws no randomness and schedules no events, so this
// must hold for every preset.
func TestObserveDoesNotPerturbRun(t *testing.T) {
	if raceEnabled {
		t.Skip("serial field-for-field comparison adds nothing under the race detector; covered by the non-race test job")
	}
	for i, o := range presetOpts(t) {
		observed, err := Run(o)
		if err != nil {
			t.Fatalf("preset %d (%s) observed: %v", i, o.AttackKey, err)
		}
		if observed.Obs == nil {
			t.Fatalf("preset %d (%s): Observe set but Result.Obs is nil", i, o.AttackKey)
		}
		if observed.Spans == nil || observed.Forensics == nil {
			t.Fatalf("preset %d (%s): Spans set but Result.Spans/Forensics is nil", i, o.AttackKey)
		}
		plain := o
		plain.Observe = false
		plain.Spans = false
		bare, err := Run(plain)
		if err != nil {
			t.Fatalf("preset %d (%s) bare: %v", i, o.AttackKey, err)
		}
		if bare.Obs != nil {
			t.Fatalf("preset %d (%s): Observe unset but Result.Obs is non-nil", i, o.AttackKey)
		}
		if bare.Spans != nil || bare.Forensics != nil {
			t.Fatalf("preset %d (%s): Spans unset but Result.Spans/Forensics is non-nil", i, o.AttackKey)
		}
		stripped := *observed
		stripped.Obs = nil
		stripped.Spans = nil
		stripped.Forensics = nil
		if !reflect.DeepEqual(&stripped, bare) {
			t.Errorf("preset %d (%s): enabling instrumentation changed the run outcome",
				i, o.AttackKey)
		}
	}
}

// TestForensicsJSONIdenticalAcrossWorkerCounts pins the new causal
// layer's determinism independently of the full-Result check: the
// forensics report — chain renderings included — must serialize to
// byte-identical JSON whether the run executed serially or inside a
// parallel sweep at any worker count.
func TestForensicsJSONIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every preset at three worker counts")
	}
	optsList := presetOpts(t)
	want := make([][]byte, len(optsList))
	for i, o := range optsList {
		r, err := Run(o)
		if err != nil {
			t.Fatalf("serial run %d (%s): %v", i, o.AttackKey, err)
		}
		if r.Forensics == nil || len(r.Forensics.Effects) == 0 {
			t.Fatalf("preset %d (%s): forensics report empty", i, o.AttackKey)
		}
		want[i], err = json.Marshal(r.Forensics)
		if err != nil {
			t.Fatalf("marshal serial %d: %v", i, err)
		}
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		res, err := Sweep(optsList, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range res {
			got, err := json.Marshal(res[i].Forensics)
			if err != nil {
				t.Fatalf("marshal workers=%d preset %d: %v", workers, i, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("workers=%d preset %d (%s): forensics JSON differs from serial",
					workers, i, optsList[i].AttackKey)
			}
		}
	}
}

func TestSweepReturnsLowestIndexedError(t *testing.T) {
	// Two different failures at indices 1 and 3; the reported error
	// must always be index 1's, no matter how the scheduler interleaves
	// the runs.
	good := DefaultOptions()
	good.Duration = 5 * sim.Second
	good.Vehicles = 4
	badVehicles := good
	badVehicles.Vehicles = 0
	badDuration := good
	badDuration.Duration = 0
	list := []Options{good, badVehicles, good, badDuration}

	for iter := 0; iter < 3; iter++ {
		_, err := Sweep(list, 4)
		if err == nil {
			t.Fatal("sweep with failing runs returned nil error")
		}
		if !strings.Contains(err.Error(), "sweep run 1") {
			t.Fatalf("iter %d: error %q does not name run 1 (lowest failing index)", iter, err)
		}
	}
}
