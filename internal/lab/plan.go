package lab

import (
	"context"
	"fmt"
	"slices"

	"platoonsec/internal/engine"
	"platoonsec/internal/scenario"
	"platoonsec/internal/taxonomy"
)

// Pair addresses one (attack, mechanism) cell of the defense matrix.
type Pair struct{ Attack, Mechanism string }

// Plan declares one experiment sweep: the Table II rows, a set of
// (attack, mechanism) cells and the E5 jamming curve. Measure expands
// it to a deduplicated run list, executes that once on the experiment
// engine and reduces the results to Tables.
type Plan struct {
	// TableII measures the undefended baseline and every Table II
	// attack against an undefended platoon.
	TableII bool
	// Cells are the (attack, mechanism) pairings to measure, each as
	// an undefended and a defended run.
	Cells []Pair
	// JammerPowers sweeps the undefended jamming attack over these
	// jammer powers in dBm (the E5 dose-response curve).
	JammerPowers []float64
}

// ClaimedCells lists Table III's claimed (mechanism → attack)
// pairings in registry order, mechanism-major.
func ClaimedCells() []Pair {
	var out []Pair
	for _, m := range taxonomy.Mechanisms() {
		for _, k := range m.Mitigates {
			out = append(out, Pair{Attack: k, Mechanism: m.Key})
		}
	}
	return out
}

// JammingCurve returns the E5 jammer powers in dBm.
func JammingCurve() []float64 { return []float64{10, 20, 30, 40, 50} }

// PaperPlan is everything Tables II and III print: the Table II sweep
// and every claimed Table III cell.
func PaperPlan() Plan { return Plan{TableII: true, Cells: ClaimedCells()} }

// Tables is one measured plan. Table II's attacked runs and every
// cell's undefended run are the same runs, shared by pointer.
type Tables struct {
	// Outcomes holds the Table II rows keyed by attack key (empty
	// unless Plan.TableII).
	Outcomes map[string]*AttackOutcome
	// Cells holds one measurement per planned pairing.
	Cells map[Pair]*Cell
	// Jamming is aligned with Plan.JammerPowers.
	Jamming []*scenario.Result
	// Telemetry is the engine's aggregate over the distinct runs.
	Telemetry engine.Telemetry
}

// run identifies one scenario in a plan. Every plan run is
// Config.OptionsFor(attack, pack of mech) with the jammer power set,
// so equal keys are equal experiments.
type run struct {
	attack, mech string // mech "" = undefended
	power        float64
}

// runs lists every run the plan names, in declaration order,
// duplicates included.
func (p Plan) runs() []run {
	var rs []run
	if p.TableII {
		rs = append(rs, run{})
		for _, a := range taxonomy.Attacks() {
			rs = append(rs, run{attack: a.Key})
		}
	}
	for _, c := range p.Cells {
		rs = append(rs, run{attack: c.Attack}, run{attack: c.Attack, mech: c.Mechanism})
	}
	for _, pw := range p.JammerPowers {
		rs = append(rs, run{attack: "jamming", power: pw})
	}
	return rs
}

// Runs expands the plan to the scenario options of every run it names,
// in declaration order and without deduplication: the baseline and the
// Table II attacks, each cell's undefended and defended run, then the
// jamming curve. Benchmarks that time the whole experiment shape use
// it; Measure runs each distinct experiment once instead.
func (p Plan) Runs(c Config) ([]scenario.Options, error) {
	rs := p.runs()
	out := make([]scenario.Options, len(rs))
	for i, r := range rs {
		var pack scenario.DefensePack
		if r.mech != "" {
			var err error
			if pack, err = scenario.PackForMechanism(r.mech); err != nil {
				return nil, fmt.Errorf("lab: %w", err)
			}
		}
		out[i] = c.OptionsFor(r.attack, pack)
		out[i].JammerPowerDBm = r.power
	}
	return out, nil
}

// Measure runs every distinct experiment of the plan once through the
// engine on the given number of workers (<= 0: GOMAXPROCS) and reduces
// the results. The Tables are identical at any worker count.
func Measure(c Config, p Plan, workers int) (*Tables, error) {
	all, err := p.Runs(c)
	if err != nil {
		return nil, err
	}
	index := make(map[run]int)
	var opts []scenario.Options
	for i, r := range p.runs() {
		if _, ok := index[r]; !ok {
			index[r] = len(opts)
			opts = append(opts, all[i])
		}
	}
	rep := scenario.SweepReport(context.Background(), opts, scenario.SweepConfig{Workers: workers, FailFast: true})
	if rep.Err != nil {
		return nil, fmt.Errorf("lab: %w", rep.Err)
	}
	result := func(r run) *scenario.Result { return rep.Results[index[r]] }

	t := &Tables{
		Outcomes:  make(map[string]*AttackOutcome),
		Cells:     make(map[Pair]*Cell, len(p.Cells)),
		Telemetry: rep.Telemetry,
	}
	if p.TableII {
		base := result(run{})
		for _, a := range taxonomy.Attacks() {
			r := result(run{attack: a.Key})
			o := &AttackOutcome{Attack: a, Baseline: base, Attacked: r, Evidence: evidenceFrom(r)}
			o.Summary, o.PropertyHeld = summarize(a, base, r)
			t.Outcomes[a.Key] = o
		}
	}
	for _, pc := range p.Cells {
		cell := &Cell{
			AttackKey:    pc.Attack,
			MechanismKey: pc.Mechanism,
			Undefended:   result(run{attack: pc.Attack}),
			Defended:     result(run{attack: pc.Attack, mech: pc.Mechanism}),
		}
		cell.Mitigated, cell.Note = verdict(pc.Attack, cell.Undefended, cell.Defended)
		m, _ := taxonomy.MechanismByKey(pc.Mechanism)
		cell.Claimed = slices.Contains(m.Mitigates, pc.Attack)
		t.Cells[pc] = cell
	}
	for _, pw := range p.JammerPowers {
		t.Jamming = append(t.Jamming, result(run{attack: "jamming", power: pw}))
	}
	return t, nil
}
