package lab

import (
	"context"
	"fmt"
	"math"

	"platoonsec/internal/engine"
	"platoonsec/internal/scenario"
)

// Stat is a cross-seed summary of one observable.
type Stat struct {
	Mean, Std, Min, Max float64
	N                   int
}

func (s Stat) String() string {
	return fmt.Sprintf("%.3f ± %.3f [%.3f, %.3f] n=%d", s.Mean, s.Std, s.Min, s.Max, s.N)
}

func newStat(xs []float64) Stat {
	st := Stat{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if st.N == 0 {
		return Stat{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < st.Min {
			st.Min = x
		}
		if x > st.Max {
			st.Max = x
		}
	}
	st.Mean = sum / float64(st.N)
	var sq float64
	for _, x := range xs {
		d := x - st.Mean
		sq += d * d
	}
	st.Std = math.Sqrt(sq / float64(st.N))
	return st
}

// SeedStats aggregates one experiment across seeds.
type SeedStats struct {
	MaxSpacingErr Stat
	DisbandedFrac Stat
	PDR           Stat
	GhostMembers  Stat
	Ejected       Stat
	FuelPer100    Stat
	EavesYield    Stat
	// Telemetry is the engine's aggregate for the underlying sweep
	// (wall time, runs/sec, events/sec, allocation counters).
	Telemetry engine.Telemetry
}

// MeasureAcrossSeeds re-runs the same (attack, defense) experiment for
// every seed in parallel and reduces each observable to mean ± std.
// One-seed table sweeps are good for shapes; this answers "is the shape
// luck?" for the EXPERIMENTS.md claims.
func MeasureAcrossSeeds(c Config, seeds []int64, attackKey string, pack scenario.DefensePack) (*SeedStats, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("lab: no seeds")
	}
	optsList := make([]scenario.Options, len(seeds))
	for i, seed := range seeds {
		o := c.OptionsFor(attackKey, pack)
		o.Seed = seed
		optsList[i] = o
	}
	rep := scenario.SweepReport(context.Background(), optsList, scenario.SweepConfig{})
	if rep.Err != nil {
		return nil, fmt.Errorf("lab: seed %d (run %d): %w", seeds[rep.ErrIndex], rep.ErrIndex, rep.Err)
	}
	results := rep.Results
	collect := func(get func(*scenario.Result) float64) Stat {
		xs := make([]float64, len(results))
		for i, r := range results {
			xs[i] = get(r)
		}
		return newStat(xs)
	}
	return &SeedStats{
		Telemetry:     rep.Telemetry,
		MaxSpacingErr: collect(func(r *scenario.Result) float64 { return r.MaxSpacingErr }),
		DisbandedFrac: collect(func(r *scenario.Result) float64 { return r.DisbandedFrac }),
		PDR:           collect(func(r *scenario.Result) float64 { return r.PDR }),
		GhostMembers:  collect(func(r *scenario.Result) float64 { return float64(r.GhostMembers) }),
		Ejected:       collect(func(r *scenario.Result) float64 { return float64(r.VictimsEjected) }),
		FuelPer100:    collect(func(r *scenario.Result) float64 { return r.LitresPer100 }),
		EavesYield:    collect(func(r *scenario.Result) float64 { return r.EavesdropYield }),
	}, nil
}

// Seeds returns n sequential seeds starting at first.
func Seeds(first int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out
}
