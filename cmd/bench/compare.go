// Regression-gate mode: -compare FILE re-reads a previously committed
// baseline and fails (exit 1, via an error) when any workload's
// allocs/run regressed beyond -tolerance percent, or its latency
// (mean AND median ns/run) beyond -latency-tolerance percent. Metrics
// that improved or moved within tolerance are reported on stderr so a
// gate run doubles as a perf changelog. A baseline whose
// latency_baseline names an earlier file gates latency against that
// file's figures instead of its own (see baseline.LatencyBaseline).

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// compareBaselines checks cur against the baseline stored at path.
// allocTolPct bounds allocs/run (deterministic, so tight); latTolPct
// bounds ns/run (wall clock, so wide).
func compareBaselines(path string, cur baseline, allocTolPct, latTolPct float64) error {
	ref, err := readBaseline(path, cur)
	if err != nil {
		return err
	}
	refByName := workloadsByName(ref)
	latByName := refByName
	if ref.LatencyBaseline != "" {
		latPath := filepath.Join(filepath.Dir(path), ref.LatencyBaseline)
		lat, err := readBaseline(latPath, cur)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: latency gates against %s (named by %s's latency_baseline)\n", latPath, path)
		latByName = workloadsByName(lat)
		for name, w := range refByName {
			if _, ok := latByName[name]; !ok {
				latByName[name] = w
			}
		}
	}

	var regressions []string
	for _, w := range cur.Workloads {
		old, ok := refByName[w.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: %-11s new workload, nothing to compare\n", w.Name)
			continue
		}
		// Latency regresses only when mean AND median both exceed
		// the latency tolerance. Either statistic alone trips on
		// machine noise — a single GC or scheduler hiccup skews the
		// mean of a short workload by 30%+, and in heterogeneous
		// sweeps (E3 mixes 40ms and 5s runs) the median jitters at
		// config boundaries — but a genuine slowdown shifts both.
		// Baselines recorded before p50_ns existed fall back to
		// mean-only.
		oldLat := latByName[w.Name].Telemetry
		meanDelta := pctDelta(float64(oldLat.NSPerRun), float64(w.Telemetry.NSPerRun))
		p50Delta := meanDelta
		if oldLat.P50NS > 0 && w.Telemetry.P50NS > 0 {
			p50Delta = pctDelta(float64(oldLat.P50NS), float64(w.Telemetry.P50NS))
		}
		latLine := fmt.Sprintf("%s ns_per_run: %d -> %d (mean %+.1f%%, p50 %+.1f%%)",
			w.Name, oldLat.NSPerRun, w.Telemetry.NSPerRun, meanDelta, p50Delta)
		if meanDelta > latTolPct && p50Delta > latTolPct {
			regressions = append(regressions, latLine)
			fmt.Fprintf(os.Stderr, "bench: REGRESSION %s exceeds +%.0f%% latency tolerance\n", latLine, latTolPct)
		} else {
			fmt.Fprintf(os.Stderr, "bench: ok %s\n", latLine)
		}

		allocDelta := pctDelta(float64(old.Telemetry.AllocsPerRun), float64(w.Telemetry.AllocsPerRun))
		allocLine := fmt.Sprintf("%s allocs_per_run: %d -> %d (%+.1f%%)",
			w.Name, old.Telemetry.AllocsPerRun, w.Telemetry.AllocsPerRun, allocDelta)
		if allocDelta > allocTolPct {
			regressions = append(regressions, allocLine)
			fmt.Fprintf(os.Stderr, "bench: REGRESSION %s exceeds +%.0f%% tolerance\n", allocLine, allocTolPct)
		} else {
			fmt.Fprintf(os.Stderr, "bench: ok %s\n", allocLine)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond tolerance (allocs +%.0f%%, latency +%.0f%%) vs %s", len(regressions), allocTolPct, latTolPct, path)
	}
	fmt.Fprintf(os.Stderr, "bench: gate passed, no metric regressed beyond tolerance (allocs +%.0f%%, latency +%.0f%%) vs %s\n", allocTolPct, latTolPct, path)
	return nil
}

// pctDelta returns the percent change from old to cur; a zero or
// missing old value compares as unchanged unless cur grew from zero.
func pctDelta(old, cur float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return 100 // grew from nothing: always over tolerance
	}
	return (cur - old) / old * 100
}

// readBaseline decodes the baseline at path and checks it was measured
// in the same mode (quick, obs, spans) as cur.
func readBaseline(path string, cur baseline) (baseline, error) {
	var ref baseline
	f, err := os.Open(path)
	if err != nil {
		return ref, fmt.Errorf("compare baseline: %w", err)
	}
	defer f.Close() //platoonvet:allow errcheck -- read-only file; close cannot lose data
	if err := json.NewDecoder(f).Decode(&ref); err != nil {
		return ref, fmt.Errorf("compare baseline %s: %w", path, err)
	}
	if ref.Quick != cur.Quick || ref.Obs != cur.Obs || ref.Spans != cur.Spans {
		return ref, fmt.Errorf("compare baseline %s: mode mismatch (quick=%v obs=%v spans=%v vs current quick=%v obs=%v spans=%v); re-measure with matching flags",
			path, ref.Quick, ref.Obs, ref.Spans, cur.Quick, cur.Obs, cur.Spans)
	}
	return ref, nil
}

// workloadsByName indexes b's workloads by name.
func workloadsByName(b baseline) map[string]workloadResult {
	m := make(map[string]workloadResult, len(b.Workloads))
	for _, w := range b.Workloads {
		m[w.Name] = w
	}
	return m
}
