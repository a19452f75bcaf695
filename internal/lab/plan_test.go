package lab

import (
	"reflect"
	"runtime"
	"testing"

	"platoonsec/internal/scenario"
	"platoonsec/internal/taxonomy"
)

// directRun is the serial path the plan replaces: one scenario.Run per
// experiment, no engine, no sharing.
func directRun(t *testing.T, c Config, attack, mech string, power float64) *scenario.Result {
	t.Helper()
	var pack scenario.DefensePack
	if mech != "" {
		var err error
		if pack, err = scenario.PackForMechanism(mech); err != nil {
			t.Fatal(err)
		}
	}
	o := c.OptionsFor(attack, pack)
	o.JammerPowerDBm = power
	r, err := scenario.Run(o)
	if err != nil {
		t.Fatalf("%s vs %q: %v", attack, mech, err)
	}
	return r
}

// TestMeasureMatchesDirectRuns is the dedup oracle: every outcome and
// cell of a deduplicated engine sweep equals the one built from its
// own direct runs, at one worker and at GOMAXPROCS.
func TestMeasureMatchesDirectRuns(t *testing.T) {
	c := quick()
	attacks := []string{"jamming", "eavesdropping"}
	mechs := []string{"hybrid-comms", "onboard"}
	plan := Plan{TableII: true, JammerPowers: []float64{20}}
	for _, a := range attacks {
		for _, m := range mechs {
			plan.Cells = append(plan.Cells, Pair{Attack: a, Mechanism: m})
		}
	}

	base := directRun(t, c, "", "", 0)
	want := &Tables{Outcomes: make(map[string]*AttackOutcome), Cells: make(map[Pair]*Cell)}
	for _, a := range taxonomy.Attacks() {
		r := directRun(t, c, a.Key, "", 0)
		o := &AttackOutcome{Attack: a, Baseline: base, Attacked: r, Evidence: evidenceFrom(r)}
		o.Summary, o.PropertyHeld = summarize(a, base, r)
		want.Outcomes[a.Key] = o
	}
	for _, pc := range plan.Cells {
		cell := &Cell{
			AttackKey:    pc.Attack,
			MechanismKey: pc.Mechanism,
			Undefended:   directRun(t, c, pc.Attack, "", 0),
			Defended:     directRun(t, c, pc.Attack, pc.Mechanism, 0),
			Claimed:      pc.Mechanism == "hybrid-comms" && pc.Attack == "jamming",
		}
		cell.Mitigated, cell.Note = verdict(pc.Attack, cell.Undefended, cell.Defended)
		want.Cells[pc] = cell
	}
	want.Jamming = []*scenario.Result{directRun(t, c, "jamming", "", 20)}

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		got, err := Measure(c, plan, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Telemetry.Runs != 1+len(taxonomy.Attacks())+len(plan.Cells)+1 {
			t.Errorf("workers=%d: %d runs, want the baseline, the attacks, one defended run per cell and the curve",
				workers, got.Telemetry.Runs)
		}
		for k, o := range want.Outcomes {
			if !reflect.DeepEqual(got.Outcomes[k], o) {
				t.Errorf("workers=%d: outcome %s differs from its direct runs", workers, k)
			}
		}
		for k, cell := range want.Cells {
			if !reflect.DeepEqual(got.Cells[k], cell) {
				t.Errorf("workers=%d: cell %s/%s differs from its direct runs", workers, k.Mechanism, k.Attack)
			}
		}
		if !reflect.DeepEqual(got.Jamming, want.Jamming) {
			t.Errorf("workers=%d: jamming curve differs from its direct runs", workers)
		}
		if len(got.Outcomes) != len(want.Outcomes) || len(got.Cells) != len(want.Cells) {
			t.Errorf("workers=%d: %d outcomes / %d cells, want %d / %d",
				workers, len(got.Outcomes), len(got.Cells), len(want.Outcomes), len(want.Cells))
		}
		if got.Cells[plan.Cells[0]].Undefended != got.Outcomes["jamming"].Attacked {
			t.Errorf("workers=%d: the cell's undefended run was not shared with Table II", workers)
		}
	}
}

func TestPlanRunsKeepsDuplicates(t *testing.T) {
	p := Plan{TableII: true, Cells: ClaimedCells(), JammerPowers: JammingCurve()}
	opts, err := p.Runs(quick())
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(taxonomy.Attacks()) + 2*len(ClaimedCells()) + len(JammingCurve()); len(opts) != want {
		t.Fatalf("Runs = %d, want %d", len(opts), want)
	}
	if _, err := (Plan{Cells: []Pair{{Attack: "jamming", Mechanism: "prayer"}}}).Runs(quick()); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}
