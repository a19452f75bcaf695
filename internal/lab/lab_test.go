package lab

import (
	"strings"
	"sync"
	"testing"

	"platoonsec/internal/risk"
	"platoonsec/internal/sim"
	"platoonsec/internal/taxonomy"
)

// quick is a reduced configuration to keep the test suite fast; the
// benches run the full DefaultConfig.
func quick() Config {
	return Config{Seed: 1, Duration: 40 * sim.Second, Vehicles: 6}
}

// quickPlan is the one plan the package's tests share: the paper's
// tables plus the unclaimed keys × jamming cell.
func quickPlan() Plan {
	p := PaperPlan()
	p.Cells = append(p.Cells, Pair{Attack: "jamming", Mechanism: "keys"})
	return p
}

var quickMeasured = sync.OnceValues(func() (*Tables, error) {
	return Measure(quick(), quickPlan(), 0)
})

// measured returns the test binary's single measurement of quickPlan.
func measured(t *testing.T) *Tables {
	t.Helper()
	tables, err := quickMeasured()
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

func TestMeasureTableIIAllPropertiesHold(t *testing.T) {
	outcomes := measured(t).Outcomes
	if len(outcomes) != len(taxonomy.Attacks()) {
		t.Fatalf("outcomes = %d, want %d", len(outcomes), len(taxonomy.Attacks()))
	}
	for key, o := range outcomes {
		if !o.PropertyHeld {
			t.Errorf("%s: paper's property claim NOT reproduced: %s", key, o.Summary)
		}
		if o.Summary == "" {
			t.Errorf("%s: empty summary", key)
		}
		if o.Evidence == nil {
			t.Errorf("%s: no evidence", key)
		}
	}
}

func TestMeasureCellKeysVsFakeManeuver(t *testing.T) {
	cell := measured(t).Cells[Pair{Attack: "fake-maneuver", Mechanism: "keys"}]
	if !cell.Claimed {
		t.Fatal("paper claims keys mitigate fake maneuvers")
	}
	if !cell.Mitigated {
		t.Fatalf("keys failed to mitigate fake-maneuver: %s", cell.Note)
	}
	if cell.Undefended.VictimsEjected == 0 {
		t.Fatal("undefended run showed no attack effect (experiment broken)")
	}
}

func TestMeasureCellKeysDoNotStopJamming(t *testing.T) {
	cell := measured(t).Cells[Pair{Attack: "jamming", Mechanism: "keys"}]
	if cell.Claimed {
		t.Fatal("paper does not claim keys stop jamming")
	}
	if cell.Mitigated {
		t.Fatal("keys appeared to stop jamming — physically impossible, harness broken")
	}
}

func TestMeasureCellHybridVsJamming(t *testing.T) {
	cell := measured(t).Cells[Pair{Attack: "jamming", Mechanism: "hybrid-comms"}]
	if !cell.Claimed || !cell.Mitigated {
		t.Fatalf("SP-VLC vs jamming: claimed=%v mitigated=%v (%s)",
			cell.Claimed, cell.Mitigated, cell.Note)
	}
}

func TestMeasureCellUnknownMechanism(t *testing.T) {
	if _, err := Measure(quick(), Plan{Cells: []Pair{{Attack: "jamming", Mechanism: "prayer"}}}, 0); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

func TestMeasureTableIIIAllClaimedCellsMitigated(t *testing.T) {
	cells := measured(t).Cells
	claimed := 0
	for _, m := range taxonomy.Mechanisms() {
		claimed += len(m.Mitigates)
	}
	if n := len(ClaimedCells()); n != claimed {
		t.Fatalf("ClaimedCells = %d, want %d claimed pairings", n, claimed)
	}
	if len(cells) != claimed+1 {
		t.Fatalf("cells = %d, want %d claimed pairings plus keys × jamming", len(cells), claimed+1)
	}
	for _, pc := range ClaimedCells() {
		cell := cells[pc]
		if !cell.Claimed {
			t.Errorf("%s/%s: swept but not claimed?", pc.Mechanism, pc.Attack)
		}
		if !cell.Mitigated {
			t.Errorf("%s/%s: paper's mitigation claim NOT reproduced: %s", pc.Mechanism, pc.Attack, cell.Note)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.Vehicles != 8 || c.Duration != 60*sim.Second {
		t.Fatalf("unexpected defaults: %+v", c)
	}
}

func TestRiskEvidenceAndMatrix(t *testing.T) {
	outcomes := measured(t).Outcomes
	ev := RiskEvidence(outcomes)
	if len(ev) != len(outcomes) {
		t.Fatalf("evidence entries = %d", len(ev))
	}
	matrix := risk.Matrix(ev)
	measured := 0
	for _, a := range matrix {
		if a.Measured {
			measured++
		}
	}
	if measured != len(outcomes) {
		t.Fatalf("measured assessments = %d, want %d", measured, len(outcomes))
	}
	out := risk.Render(matrix)
	if !strings.Contains(out, "measured") {
		t.Fatal("render lost measurement basis")
	}
}
