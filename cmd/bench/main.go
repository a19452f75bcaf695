// Command bench measures experiment-engine throughput on the repo's
// three heaviest reproduction workloads and writes a machine-readable
// baseline so every future PR has a perf trajectory to compare against:
//
//	E2  Table II attack sweep (baseline + every attack, undefended)
//	E3  Table III defense matrix (every claimed cell, undefended + defended)
//	E5  jamming dose-response (10–50 dBm)
//	E18 sharded multi-platoon world (1000 platoons / 100k vehicles)
//	E19 platoond HTTP service, repeat traffic over the digest cache
//	E20 E18 with the epoch metrics timeline enabled (overhead vs E18)
//
// Usage:
//
//	bench [-o BENCH_baseline.json] [-quick] [-workers N] [-obs] [-spans]
//	      [-cpuprofile FILE] [-memprofile FILE]
//	      [-compare BENCH_baseline.json [-tolerance 10] [-latency-tolerance 25]]
//
//	-compare re-reads a committed baseline after measuring and fails
//	when any workload regressed — the CI perf gate (`make bench-gate`).
//	Allocation counts are deterministic, so allocs/run gates tightly at
//	-tolerance percent. Wall clock on a shared runner is not: ns/run
//	gates at the wider -latency-tolerance percent, and only when the
//	mean AND the median both exceed it (an outlier run skews only the
//	mean; config-boundary jitter in heterogeneous sweeps skews only the
//	median; a genuine slowdown shifts both). A committed baseline
//	recorded on another host class sets latency_baseline to the earlier
//	file whose ns/run figures stay the latency reference.
//
//	-obs attaches the flight recorder to every run, for measuring the
//	observability overhead against a plain baseline (EXPERIMENTS.md
//	E14); the JSON records obs=true so the two are never confused.
//
//	-spans attaches the causal span tracer to every run, for measuring
//	the provenance overhead (EXPERIMENTS.md E15); records spans=true.
//	Combine with -obs to measure the full instrumentation stack.
//
// The output JSON records, per workload, the engine telemetry: runs,
// wall time, runs/sec, ns/run, events/sec, allocs/run and alloc
// bytes/run, and p50/p95/max run latency. No wall-clock date is
// recorded, so re-running on identical code and hardware produces
// small diffs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"platoonsec/internal/engine"
	"platoonsec/internal/lab"
	"platoonsec/internal/scenario"
	"platoonsec/internal/service"
	"platoonsec/internal/sim"
	"platoonsec/internal/taxonomy"
	"platoonsec/internal/world"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// workload is one named batch of scenario runs.
type workload struct {
	Name       string
	Experiment string
	Opts       []scenario.Options
}

// workloadResult is one workload's measured baseline entry.
type workloadResult struct {
	Name       string           `json:"name"`
	Experiment string           `json:"experiment"`
	Telemetry  engine.Telemetry `json:"telemetry"`
}

// baseline is the BENCH_baseline.json schema.
type baseline struct {
	Schema     int    `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Quick      bool   `json:"quick"`
	Obs        bool   `json:"obs,omitempty"`
	Spans      bool   `json:"spans,omitempty"`
	// LatencyBaseline, when set in a committed baseline, names an
	// earlier baseline file (same directory) whose ns/run figures the
	// latency gate uses instead of this file's. It marks a baseline
	// recorded on a different host class: its allocs/run still gate,
	// but its wall-clock figures are not comparable with the earlier
	// ones. Never written by a measurement run.
	LatencyBaseline string           `json:"latency_baseline,omitempty"`
	Workloads       []workloadResult `json:"workloads"`
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("o", "BENCH_baseline.json", "baseline output file")
	quick := fs.Bool("quick", false, "shorter runs (CI smoke; not a comparable baseline)")
	obsOn := fs.Bool("obs", false, "attach the flight recorder to every run (overhead measurement)")
	spansOn := fs.Bool("spans", false, "attach the causal span tracer to every run (overhead measurement)")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	compare := fs.String("compare", "", "baseline FILE to gate against: fail on ns/run or allocs/run regression")
	tolerance := fs.Float64("tolerance", 10, "allowed allocs/run regression percentage for -compare")
	latTolerance := fs.Float64("latency-tolerance", 25, "allowed ns/run regression percentage for -compare (wider: wall clock is noisy on shared runners, allocation counts are deterministic)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to FILE")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := lab.DefaultConfig()
	cfg.Observe = *obsOn
	cfg.Spans = *spansOn
	if *quick {
		cfg.Duration = 10 * sim.Second
		cfg.Vehicles = 4
	}

	if *cpuprofile != "" || *memprofile != "" {
		stop, perr := engine.StartProfiles(*cpuprofile, *memprofile)
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); serr != nil && err == nil {
				err = serr
			}
		}()
	}

	base := baseline{
		Schema:     1,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      *quick,
		Obs:        *obsOn,
		Spans:      *spansOn,
	}
	for _, wl := range workloads(cfg) {
		rep := scenario.SweepReport(context.Background(), wl.Opts, scenario.SweepConfig{
			Workers:        *workers,
			DiscardResults: true, // measure the streaming path; memory stays flat
		})
		if rep.Err != nil {
			return fmt.Errorf("%s run %d: %w", wl.Name, rep.ErrIndex, rep.Err)
		}
		base.Workloads = append(base.Workloads, workloadResult{
			Name:       wl.Name,
			Experiment: wl.Experiment,
			Telemetry:  rep.Telemetry,
		})
		fmt.Fprintf(os.Stderr, "bench: %-11s %s\n", wl.Name, rep.Telemetry)
	}

	// E18: the sharded world is not a scenario.Run, so it sweeps
	// through the engine directly.
	wrep := engine.Sweep(context.Background(), worldJobs(*quick, *spansOn, false),
		engine.Config[*world.Result]{
			Workers:        *workers,
			DiscardResults: true,
			EventsOf:       func(r *world.Result) uint64 { return r.UnitTicks },
		})
	if wrep.Err != nil {
		return fmt.Errorf("E18-world run %d: %w", wrep.ErrIndex, wrep.Err)
	}
	base.Workloads = append(base.Workloads, workloadResult{
		Name:       "E18-world",
		Experiment: "interchange jamming, 1000 platoons / 100k vehicles, 4 shards (EXPERIMENTS.md E18)",
		Telemetry:  wrep.Telemetry,
	})
	fmt.Fprintf(os.Stderr, "bench: %-11s %s\n", "E18-world", wrep.Telemetry)

	// E20: the same world with the per-epoch metrics timeline (and its
	// wall-clock shard timings) enabled — the delta against E18-world is
	// the observability overhead the timeline costs a real deployment.
	trep := engine.Sweep(context.Background(), worldJobs(*quick, *spansOn, true),
		engine.Config[*world.Result]{
			Workers:        *workers,
			DiscardResults: true,
			EventsOf:       func(r *world.Result) uint64 { return r.UnitTicks },
		})
	if trep.Err != nil {
		return fmt.Errorf("E20-timeline run %d: %w", trep.ErrIndex, trep.Err)
	}
	base.Workloads = append(base.Workloads, workloadResult{
		Name:       "E20-timeline",
		Experiment: "E18 world with the epoch timeline + wall timings enabled; overhead vs E18-world (EXPERIMENTS.md E20)",
		Telemetry:  trep.Telemetry,
	})
	fmt.Fprintf(os.Stderr, "bench: %-11s %s\n", "E20-timeline", trep.Telemetry)

	// E19: the platoond service path — the same simulations served over
	// HTTP with digest-keyed caching. Each job is one POST /v1/runs
	// through the full decode → normalize → digest → cache → serve
	// pipeline; repeat traffic makes the cache and single-flight layers
	// do their job, so ns/run here tracks the service overhead, not the
	// simulation.
	jobs, closeSrv, err := platoondJobs(*quick)
	if err != nil {
		return err
	}
	prep := engine.Sweep(context.Background(), jobs,
		engine.Config[int]{
			Workers:        *workers,
			DiscardResults: true,
			EventsOf:       func(n int) uint64 { return uint64(n) }, // response bytes served
		})
	closeSrv()
	if prep.Err != nil {
		return fmt.Errorf("E19-platoond run %d: %w", prep.ErrIndex, prep.Err)
	}
	base.Workloads = append(base.Workloads, workloadResult{
		Name:       "E19-platoond",
		Experiment: "platoond HTTP service, repeat traffic over the digest cache (EXPERIMENTS.md E19)",
		Telemetry:  prep.Telemetry,
	})
	fmt.Fprintf(os.Stderr, "bench: %-11s %s\n", "E19-platoond", prep.Telemetry)

	f, err := os.Create(*out)
	if err != nil {
		return fmt.Errorf("baseline file: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(base); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = fmt.Errorf("%w (and closing: %v)", err, cerr)
		}
		return fmt.Errorf("baseline file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("baseline file: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", *out)
	if *compare != "" {
		return compareBaselines(*compare, base, *tolerance, *latTolerance)
	}
	return nil
}

// workloads builds the three benchmark batches from the lab config,
// mirroring how the tables harness drives the same experiments.
func workloads(cfg lab.Config) []workload {
	none := scenario.DefensePack{}

	// E2: the Table II sweep — one baseline plus every attack class,
	// all undefended.
	e2 := []scenario.Options{cfg.OptionsFor("", none)}
	for _, a := range taxonomy.Attacks() {
		e2 = append(e2, cfg.OptionsFor(a.Key, none))
	}

	// E3: the Table III matrix — every claimed (mechanism, attack)
	// pairing, as an undefended/defended run pair per cell.
	var e3 []scenario.Options
	for _, m := range taxonomy.Mechanisms() {
		pack, err := scenario.PackForMechanism(m.Key)
		if err != nil {
			// Mechanism registry and preset table are defined together;
			// a miss is a programming error surfaced by tests.
			panic(err)
		}
		for _, attackKey := range m.Mitigates {
			e3 = append(e3, cfg.OptionsFor(attackKey, none), cfg.OptionsFor(attackKey, pack))
		}
	}

	// E5: the jamming dose-response curve.
	var e5 []scenario.Options
	for _, power := range []float64{10, 20, 30, 40, 50} {
		o := cfg.OptionsFor("jamming", none)
		o.JammerPowerDBm = power
		e5 = append(e5, o)
	}

	return []workload{
		{Name: "E2-tableII", Experiment: "Table II attack sweep (EXPERIMENTS.md E2)", Opts: e2},
		{Name: "E3-tableIII", Experiment: "Table III defense matrix (EXPERIMENTS.md E3)", Opts: e3},
		{Name: "E5-jamming", Experiment: "jamming dose-response 10-50 dBm (EXPERIMENTS.md E5)", Opts: e5},
	}
}

// platoondJobs builds the E19 batch: an in-process platoond server on
// a loopback port and one job per HTTP request — a pool of distinct
// scenarios each requested several times, so roughly 1/8 of the
// requests execute a simulation and the rest exercise the cache path.
// Returns the jobs and a server shutdown func.
func platoondJobs(quick bool) ([]engine.Job[int], func(), error) {
	srv, err := service.NewServer(service.Config{Now: time.Now, MaxInflight: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(srv.Handler())

	distinct, total, durationSec := 8, 64, 5
	if quick {
		distinct, total, durationSec = 4, 16, 2
	}
	attacks := []string{"", "jamming", "sybil", "replay"}
	jobs := make([]engine.Job[int], total)
	for i := range jobs {
		body := fmt.Sprintf(`{"seed": %d, "duration_sec": %d, "attack": %q}`,
			i%distinct+1, durationSec, attacks[i%len(attacks)])
		jobs[i] = func(context.Context) (int, error) {
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
			if err != nil {
				return 0, err
			}
			n, err := io.Copy(io.Discard, resp.Body)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return 0, err
			}
			if resp.StatusCode != 200 {
				return 0, fmt.Errorf("platoond answered %d", resp.StatusCode)
			}
			return int(n), nil
		}
	}
	return jobs, ts.Close, nil
}

// worldJobs builds the E18/E20 batch: the interchange-jamming world
// at 1000 platoons / 100k vehicles over four seeds. Each run keeps
// Workers=1 so parallelism lives at the engine level, same as every
// other workload, and ns/run stays comparable across machines. With
// timeline set the world records its per-epoch metrics timeline with
// wall-clock shard timings — the E20 overhead configuration.
func worldJobs(quick, spans, timeline bool) []engine.Job[*world.Result] {
	wo := world.DefaultOptions()
	wo.Platoons = 1000
	wo.VehiclesPerPlatoon = 100
	wo.Shards = 4
	wo.Workers = 1
	wo.AttackKey = "jamming"
	wo.Spans = spans
	wo.Timeline = timeline
	if timeline {
		wo.WallClock = func() int64 { return time.Now().UnixNano() }
	}
	seeds := 4
	if quick {
		wo.Platoons = 100
		wo.VehiclesPerPlatoon = 10
		wo.Duration = 10 * sim.Second
		seeds = 2
	}
	jobs := make([]engine.Job[*world.Result], seeds)
	for i := range jobs {
		o := wo
		o.Seed = int64(i + 1)
		jobs[i] = func(context.Context) (*world.Result, error) { return world.Run(o) }
	}
	return jobs
}
