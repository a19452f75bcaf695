package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"platoonsec/internal/engine"
	"platoonsec/internal/lab"
	"platoonsec/internal/scenario"
	"platoonsec/internal/sim"
	"platoonsec/internal/taxonomy"
)

// Load shape: the benchmark host has 2 CPUs, so every parallel layer
// gets 2 workers.
const workers = 2

// tablesPool holds the simulation seeds tables batches draw from; the
// golden digests cover exactly these seeds.
var tablesPool = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// tablesBatch is one closed-loop batch: the Table II sweep (baseline
// plus every attack, undefended), the Table III matrix (an undefended
// and a defended run per claimed cell) and the E5 jamming curve, built
// from lab.Config.OptionsFor cells. Runs are shortened to 12 simulated
// seconds with the attack armed at 4 s so a batch takes a few seconds
// on 2 workers; the 8-vehicle platoon keeps the paper's fan-out.
func tablesBatch(simSeed int64, observe bool) []scenario.Options {
	cfg := lab.DefaultConfig()
	cfg.Seed = simSeed
	cfg.Duration = 12 * sim.Second
	cfg.Observe = observe
	none := scenario.DefensePack{}

	opts := []scenario.Options{cfg.OptionsFor("", none)}
	for _, a := range taxonomy.Attacks() {
		opts = append(opts, cfg.OptionsFor(a.Key, none))
	}
	for _, m := range taxonomy.Mechanisms() {
		pack, err := scenario.PackForMechanism(m.Key)
		if err != nil {
			panic(err) // the mechanism registry and preset table are defined together
		}
		for _, k := range m.Mitigates {
			opts = append(opts, cfg.OptionsFor(k, none), cfg.OptionsFor(k, pack))
		}
	}
	for _, power := range []float64{10, 20, 30, 40, 50} {
		o := cfg.OptionsFor("jamming", none)
		o.JammerPowerDBm = power
		opts = append(opts, o)
	}
	for i := range opts {
		opts[i].AttackStart = 4 * sim.Second
	}
	return opts
}

// batchOut is one executed batch.
type batchOut struct {
	simSeed int64
	opts    []scenario.Options
	results []*scenario.Result
	errs    []error
	begin   []time.Duration // job start minus sweep start (traced only)
	dur     []time.Duration // job wall time
	wall    time.Duration
	steals  uint64
}

type tablesSession struct {
	traced  bool
	inputs  [][]scenario.Options // one batch per pool seed, in the seed's order
	seeds   []int64
	batches []*batchOut
}

func setupTables(cfg config, traced bool) (session, error) {
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(tablesPool))
	s := &tablesSession{traced: traced}
	for _, i := range order {
		s.seeds = append(s.seeds, tablesPool[i])
		s.inputs = append(s.inputs, tablesBatch(tablesPool[i], traced))
	}
	// Warm-up: the first batch's Table II sweep (its baseline and every
	// undefended attack), so each attack's lazy initialisation is not
	// timed.
	for _, o := range s.inputs[0][:1+len(taxonomy.Attacks())] {
		if _, err := scenario.Run(o); err != nil {
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
	}
	return s, nil
}

// run sweeps whole batches until d has passed, so every figure covers
// complete batches of identical composition.
func (s *tablesSession) run(d time.Duration) (*pass, error) {
	p := &pass{}
	start := time.Now()
	for b := 0; time.Since(start) < d; b++ {
		k := b % len(s.inputs)
		var out *batchOut
		if s.traced {
			out = sweepTimed(s.inputs[k])
		} else {
			out = sweepPlain(s.inputs[k])
		}
		out.simSeed = s.seeds[k]
		s.batches = append(s.batches, out)
		p.wall += out.wall
		p.ops += len(out.opts)
	}
	p.attempted = p.ops

	var walls, pki, open, waits []float64
	var jobTime time.Duration
	var events, steals uint64
	counts := map[string]uint64{}
	for _, b := range s.batches {
		steals += b.steals
		for i, r := range b.results {
			ms := float64(b.dur[i]) / 1e6
			walls = append(walls, ms)
			jobTime += b.dur[i]
			if b.opts[i].Defense.PKI {
				pki = append(pki, ms)
			} else {
				open = append(open, ms)
			}
			if s.traced {
				waits = append(waits, float64(b.begin[i])/1e6)
			}
			if r == nil {
				continue
			}
			events += r.EventsFired
			if r.Obs != nil {
				for k, v := range r.Obs.Counters {
					counts[k] += v
				}
			}
		}
	}
	// A closed loop runs at its own peak, so the peak tail is the tail.
	lat := summarize(walls, 0.99)
	p.e2e = map[string]float64{
		"runs_per_s":  float64(p.ops) / p.wall.Seconds(),
		"p50_ms":      lat.P50,
		"p99_ms":      lat.Value,
		"peak_p99_ms": lat.Value,
	}
	p.notes = append(p.notes, fmt.Sprintf("%d batches of %d runs; run latency ms: %v",
		len(s.batches), len(s.inputs[0]), lat))
	if !s.traced {
		return p, nil
	}
	runs := float64(p.ops)
	pk, op, wt := summarize(pki, 1), summarize(open, 1), summarize(waits, 1)
	p.layer = map[string]float64{
		"scenario.run_ms.pki.p50":  pk.P50,
		"scenario.run_ms.pki.max":  pk.Max,
		"scenario.run_ms.open.p50": op.P50,
		"scenario.run_ms.open.max": op.Max,
		"sim.events":               float64(events) / runs,
		"engine.wait_ms.p50":       wt.P50,
		"engine.wait_ms.max":       wt.Max,
		"engine.idle_frac":         1 - jobTime.Seconds()/(workers*p.wall.Seconds()),
		"engine.steals":            float64(steals) / float64(len(s.batches)),
		"mac.pdr":                  ratio(counts["mac.delivered"], counts["mac.delivered"]+counts["mac.lost"]),
	}
	for _, c := range []string{
		"phy.fading_draws", "phy.deep_fades", "mac.tx", "mac.delivered", "mac.lost",
		"mac.backoffs", "mac.queue_drops", "attack.injected", "defense.detections",
		"defense.trust_blocked",
	} {
		p.layer[c] = float64(counts[c]) / runs
	}
	return p, nil
}

// sweepPlain runs a batch through scenario.SweepReport, the public
// sweep API, taking per-run wall times from the engine's telemetry.
func sweepPlain(opts []scenario.Options) *batchOut {
	t0 := time.Now()
	rep := scenario.SweepReport(context.Background(), opts, scenario.SweepConfig{Workers: workers})
	out := &batchOut{opts: opts, results: rep.Results, errs: rep.Errors, wall: time.Since(t0), steals: rep.Telemetry.Steals}
	for _, st := range rep.Stats {
		out.dur = append(out.dur, time.Duration(st.WallNS))
	}
	return out
}

// sweepTimed runs a batch through the engine with every scenario.Run
// call timed by the benchmark, so each job's start (its wait behind the
// sweep start) is known too. The job binding is the one SweepReport
// uses.
func sweepTimed(opts []scenario.Options) *batchOut {
	out := &batchOut{
		opts:  opts,
		begin: make([]time.Duration, len(opts)),
		dur:   make([]time.Duration, len(opts)),
	}
	jobs := make([]engine.Job[*scenario.Result], len(opts))
	t0 := time.Now()
	for i := range opts {
		o := opts[i]
		jobs[i] = func(context.Context) (*scenario.Result, error) {
			start := time.Now()
			r, err := scenario.Run(o)
			out.begin[i], out.dur[i] = start.Sub(t0), time.Since(start)
			return r, err
		}
	}
	rep := engine.Sweep(context.Background(), jobs, engine.Config[*scenario.Result]{
		Workers:  workers,
		EventsOf: func(r *scenario.Result) uint64 { return r.EventsFired },
	})
	out.wall = time.Since(t0)
	out.results, out.errs, out.steals = rep.Results, rep.Errors, rep.Telemetry.Steals
	return out
}

// verify digests every result in index order against the digests the
// seed code produced for the same simulation seed.
func (s *tablesSession) verify(p *pass) error {
	good := 0
	for bi, b := range s.batches {
		want := golden.Tables[fmt.Sprint(b.simSeed)]
		for i, r := range b.results {
			if b.errs[i] != nil {
				p.failf("batch %d run %d: %v", bi, i, b.errs[i])
				p.digests = append(p.digests, "")
				continue
			}
			d, err := scenarioDigest(r)
			if err != nil {
				return err
			}
			p.digests = append(p.digests, d)
			if i >= len(want) || want[i] != d {
				p.failf("batch %d (sim seed %d) run %d: output digest %.12s differs from the seed code's", bi, b.simSeed, i, d)
				continue
			}
			good++
		}
	}
	p.e2e["peak_goodput_rps"] = float64(good) / p.wall.Seconds()
	return nil
}

func (s *tablesSession) close() {}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
