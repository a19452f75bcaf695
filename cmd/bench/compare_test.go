package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"platoonsec/internal/engine"
)

func writeBaseline(t *testing.T, b baseline) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func wl(name string, mean, p50 int64, allocs uint64) workloadResult {
	return workloadResult{Name: name, Telemetry: engine.Telemetry{
		NSPerRun: mean, P50NS: p50, AllocsPerRun: allocs,
	}}
}

// TestCompareBaselinesLatencyAndRule pins the noise filter: latency
// regresses only when mean AND median both exceed the (wider) latency
// tolerance, while allocs gate tightly on their own tolerance. A mean
// skewed by one outlier run, or a median jittering at a config
// boundary of a heterogeneous sweep, must not fail the gate alone.
func TestCompareBaselinesLatencyAndRule(t *testing.T) {
	ref := baseline{Workloads: []workloadResult{wl("E2", 1000, 1000, 500)}}
	path := writeBaseline(t, ref)

	cases := []struct {
		name     string
		cur      workloadResult
		wantFail bool
	}{
		{"within tolerance", wl("E2", 1050, 1050, 500), false},
		{"mean outlier only", wl("E2", 1400, 990, 500), false},
		{"median jitter only", wl("E2", 990, 1400, 500), false},
		{"both above alloc tol, below latency tol", wl("E2", 1200, 1200, 500), false},
		{"both regress", wl("E2", 1400, 1400, 500), true},
		{"alloc regression", wl("E2", 1000, 1000, 600), true},
		{"alloc improvement", wl("E2", 1000, 1000, 100), false},
	}
	for _, tc := range cases {
		cur := baseline{Workloads: []workloadResult{tc.cur}}
		err := compareBaselines(path, cur, 10, 25)
		if tc.wantFail && err == nil {
			t.Errorf("%s: gate passed, want failure", tc.name)
		}
		if !tc.wantFail && err != nil {
			t.Errorf("%s: gate failed (%v), want pass", tc.name, err)
		}
	}
}

// Baselines recorded before p50_ns existed fall back to mean-only.
func TestCompareBaselinesLegacyMeanOnly(t *testing.T) {
	ref := baseline{Workloads: []workloadResult{wl("E2", 1000, 0, 500)}}
	path := writeBaseline(t, ref)

	cur := baseline{Workloads: []workloadResult{wl("E2", 1400, 990, 500)}}
	if err := compareBaselines(path, cur, 10, 25); err == nil {
		t.Error("legacy baseline: mean regression passed, want failure")
	}
	ok := baseline{Workloads: []workloadResult{wl("E2", 1150, 990, 500)}}
	if err := compareBaselines(path, ok, 10, 25); err != nil {
		t.Errorf("legacy baseline: within-tolerance mean failed: %v", err)
	}
}

func TestCompareBaselinesModeMismatch(t *testing.T) {
	path := writeBaseline(t, baseline{Quick: true})
	if err := compareBaselines(path, baseline{}, 10, 25); err == nil {
		t.Error("quick-mode baseline vs full current: want mode-mismatch error")
	}
}

// A baseline recorded on another host class names the earlier file its
// latency figures gate against; its own allocs/run still gate.
func TestCompareBaselinesLatencyFromNamedBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b baseline) string {
		t.Helper()
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("old.json", baseline{Workloads: []workloadResult{wl("E2", 1000, 1000, 900)}})
	path := write("new.json", baseline{
		LatencyBaseline: "old.json",
		Workloads:       []workloadResult{wl("E2", 2000, 2000, 500), wl("E3", 1000, 1000, 500)},
	})

	cases := []struct {
		name string
		cur  []workloadResult
		fail bool
	}{
		{"latency within the named file's figures", []workloadResult{wl("E2", 1100, 1100, 500)}, false},
		{"latency over the named file's figures", []workloadResult{wl("E2", 1400, 1400, 500)}, true},
		{"allocs over this file's figures", []workloadResult{wl("E2", 1000, 1000, 600)}, true},
		{"workload absent from the named file", []workloadResult{wl("E3", 1400, 1400, 500)}, true},
	}
	for _, tc := range cases {
		err := compareBaselines(path, baseline{Workloads: tc.cur}, 10, 25)
		if (err != nil) != tc.fail {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.fail)
		}
	}

	write("bad.json", baseline{LatencyBaseline: "missing.json"})
	if err := compareBaselines(filepath.Join(dir, "bad.json"), baseline{}, 10, 25); err == nil {
		t.Error("missing latency baseline file: gate passed, want error")
	}
}
