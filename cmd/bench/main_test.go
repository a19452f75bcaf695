package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"platoonsec/internal/lab"
	"platoonsec/internal/scenario"
	"platoonsec/internal/sim"
	"platoonsec/internal/taxonomy"
)

// TestWorkloadsCoverE2E3E5 pins the E2/E3/E5 run lists to the ones the
// committed BENCH_*.json baselines timed: same runs, same order, so the
// allocs/run gate compares like with like.
func TestWorkloadsCoverE2E3E5(t *testing.T) {
	cfg := lab.DefaultConfig()
	cfg.Duration = 10 * sim.Second
	cfg.Vehicles = 4
	wls, err := workloads(cfg)
	if err != nil {
		t.Fatal(err)
	}
	none := scenario.DefensePack{}
	e2 := []scenario.Options{cfg.OptionsFor("", none)}
	for _, a := range taxonomy.Attacks() {
		e2 = append(e2, cfg.OptionsFor(a.Key, none))
	}
	var e3 []scenario.Options
	for _, m := range taxonomy.Mechanisms() {
		pack, err := scenario.PackForMechanism(m.Key)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range m.Mitigates {
			e3 = append(e3, cfg.OptionsFor(k, none), cfg.OptionsFor(k, pack))
		}
	}
	var e5 []scenario.Options
	for _, power := range []float64{10, 20, 30, 40, 50} {
		o := cfg.OptionsFor("jamming", none)
		o.JammerPowerDBm = power
		e5 = append(e5, o)
	}
	want := []struct {
		name string
		runs int
		opts []scenario.Options
	}{
		{"E2-tableII", 10, e2},  // baseline + 9 attacks
		{"E3-tableIII", 36, e3}, // 18 claimed cells × (undefended + defended)
		{"E5-jamming", 5, e5},   // 10..50 dBm
	}
	if len(wls) != len(want) {
		t.Fatalf("got %d workloads, want %d", len(wls), len(want))
	}
	for i, w := range want {
		wl := wls[i]
		if wl.Name != w.name || len(wl.Opts) != w.runs {
			t.Errorf("workload %d is %s with %d runs, want %s with %d", i, wl.Name, len(wl.Opts), w.name, w.runs)
			continue
		}
		if !reflect.DeepEqual(wl.Opts, w.opts) {
			t.Errorf("workload %s runs differ from the baselined run list", wl.Name)
		}
	}
}

func TestRunQuickWritesPopulatedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick workload set")
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := run([]string{"-quick", "-o", path}); err != nil {
		t.Fatalf("bench -quick: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("baseline is not valid JSON: %v", err)
	}
	if len(base.Workloads) != 6 {
		t.Fatalf("baseline has %d workloads, want 6", len(base.Workloads))
	}
	for _, wl := range base.Workloads {
		tele := wl.Telemetry
		if tele.Executed == 0 || tele.Executed != tele.Runs {
			t.Errorf("%s: executed %d of %d runs", wl.Name, tele.Executed, tele.Runs)
		}
		if tele.RunsPerSec <= 0 || tele.NSPerRun <= 0 {
			t.Errorf("%s: empty throughput telemetry: %+v", wl.Name, tele)
		}
		if tele.AllocsPerRun == 0 {
			t.Errorf("%s: allocs/run not recorded", wl.Name)
		}
		if tele.Events == 0 || tele.EventsPerSec <= 0 {
			t.Errorf("%s: kernel events not recorded", wl.Name)
		}
		if tele.P50NS <= 0 || tele.P95NS < tele.P50NS || tele.MaxNS < tele.P95NS {
			t.Errorf("%s: malformed latency quantiles p50=%d p95=%d max=%d",
				wl.Name, tele.P50NS, tele.P95NS, tele.MaxNS)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-notaflag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestPlatoondJobsShape: the E19 batch has the advertised repeat
// structure — a small distinct-scenario pool requested several times,
// so the cache path dominates.
func TestPlatoondJobsShape(t *testing.T) {
	jobs, closeSrv, err := platoondJobs(true)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrv()
	if len(jobs) != 16 {
		t.Fatalf("quick E19 batch has %d jobs, want 16", len(jobs))
	}
}
