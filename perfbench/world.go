package main

import (
	"fmt"
	"math/rand"
	"time"

	"platoonsec/internal/sim"
	"platoonsec/internal/world"
)

// worldPool holds the world seeds the world workload draws from; the
// golden digests cover exactly these seeds.
var worldPool = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// worldOptions is the interchange-jamming world of EXPERIMENTS.md E18:
// 1000 platoons of 100 vehicles on 4 shards, stepped by 2 shard
// workers. Traced runs add the epoch timeline with wall timings.
func worldOptions(seed int64, traced bool) world.Options {
	wo := world.DefaultOptions()
	wo.Seed = seed
	wo.Platoons = 1000
	wo.VehiclesPerPlatoon = 100
	wo.Shards = 4
	wo.Workers = workers
	wo.AttackKey = "jamming"
	if traced {
		wo.Timeline = true
		wo.WallClock = func() int64 { return time.Now().UnixNano() }
	}
	return wo
}

type worldSession struct {
	traced  bool
	inputs  []world.Options
	seeds   []int64
	results []*world.Result
	errs    []error
	runSeed []int64
	dur     []time.Duration
}

func setupWorld(cfg config, traced bool) (session, error) {
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(worldPool))
	s := &worldSession{traced: traced}
	for _, i := range order {
		s.seeds = append(s.seeds, worldPool[i])
		s.inputs = append(s.inputs, worldOptions(worldPool[i], traced))
	}
	// Warm-up: build the full population and step it for five simulated
	// seconds, so heap growth and lazy initialisation are not timed.
	wo := s.inputs[0]
	wo.Duration = 5 * sim.Second
	if _, err := world.Run(wo); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return s, nil
}

// run calls world.Run one run at a time until d has passed.
func (s *worldSession) run(d time.Duration) (*pass, error) {
	p := &pass{}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		k := i % len(s.inputs)
		t0 := time.Now()
		r, err := world.Run(s.inputs[k])
		s.dur = append(s.dur, time.Since(t0))
		s.results = append(s.results, r)
		s.errs = append(s.errs, err)
		s.runSeed = append(s.runSeed, s.seeds[k])
	}
	p.wall = time.Since(start)
	p.ops, p.attempted = len(s.results), len(s.results)

	var runs []float64
	for _, d := range s.dur {
		runs = append(runs, float64(d)/1e6)
	}
	// A pass holds too few runs for a p99 (about 30 in 30 s), so the tail
	// is the slowest run. A closed loop runs at its own peak, so the peak
	// tail is the tail.
	lat := summarize(runs, 0.99)
	p.e2e = map[string]float64{
		"runs_per_s":  float64(p.ops) / p.wall.Seconds(),
		"p50_ms":      lat.P50,
		"p99_ms":      lat.Max,
		"peak_p99_ms": lat.Max,
	}
	p.notes = append(p.notes, fmt.Sprintf("world run latency ms: %v", lat))
	if !s.traced {
		return p, nil
	}

	var epoch, step, barrier []float64
	var sumEpoch, sumBarrier float64
	var tx, delivered, lost, jammed, ticks, migrations uint64
	for _, r := range s.results {
		if r == nil {
			continue
		}
		tx, delivered, lost, jammed = tx+r.FramesTx, delivered+r.Delivered, lost+r.Lost, jammed+r.Jammed
		ticks, migrations = ticks+r.UnitTicks, migrations+r.Migrations
		if r.Timeline == nil {
			continue
		}
		for _, smp := range r.Timeline.Samples {
			e, st := smp.Gauges["world.epoch_wall_ms"], smp.Gauges["world.shard_step_ms_max"]
			epoch, step, barrier = append(epoch, e), append(step, st), append(barrier, e-st)
			sumEpoch += e
			sumBarrier += e - st
		}
	}
	n := float64(p.ops)
	ep, sp, bp := summarize(epoch, 0.99), summarize(step, 0.99), summarize(barrier, 0.99)
	p.notes = append(p.notes, fmt.Sprintf("epoch ms: %v; barrier ms: %v", ep, bp))
	p.layer = map[string]float64{
		"world.run_ms":            lat.P50,
		"world.epoch_ms.p50":      ep.P50,
		"world.epoch_ms.p99":      ep.Value,
		"world.shard_step_ms.p50": sp.P50,
		"world.shard_step_ms.p99": sp.Value,
		"world.barrier_ms.p50":    bp.P50,
		"world.barrier_ms.p99":    bp.Value,
		"world.barrier_frac":      sumBarrier / sumEpoch,
		"world.frames_tx":         float64(tx) / n,
		"world.delivered":         float64(delivered) / n,
		"world.lost":              float64(lost) / n,
		"world.jammed":            float64(jammed) / n,
		"world.unit_ticks":        float64(ticks) / n,
		"world.migrations":        float64(migrations) / n,
	}
	return p, nil
}

// verify digests every result, timeline stripped, against the digest
// the seed code produced for the same world seed.
func (s *worldSession) verify(p *pass) error {
	good := 0
	for i, r := range s.results {
		if s.errs[i] != nil {
			p.failf("run %d: %v", i, s.errs[i])
			p.digests = append(p.digests, "")
			continue
		}
		d, err := worldDigest(r)
		if err != nil {
			return err
		}
		p.digests = append(p.digests, d)
		if want := golden.World[fmt.Sprint(s.runSeed[i])]; want != d {
			p.failf("run %d (world seed %d): output digest %.12s differs from the seed code's", i, s.runSeed[i], d)
			continue
		}
		good++
	}
	p.e2e["peak_goodput_rps"] = float64(good) / p.wall.Seconds()
	return nil
}

func (s *worldSession) close() {}
