package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"platoonsec/internal/lab"
	"platoonsec/internal/sim"
)

// gridLegend closes every grid printout.
const gridLegend = "legend: ✓✓ claimed & mitigated   ·· unclaimed & not mitigated\n" +
	"        ✗C claimed but NOT mitigated   +U mitigated beyond claim\n"

// gridHeader is the printout's column header over every mechanism.
const gridHeader = "attack \\ mech      keys                 rsu                  control-algorithms   hybrid-comms         onboard             \n"

// runOut runs attacklab with args and returns its stdout and stderr.
func runOut(t *testing.T, args ...string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run %v: %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestRunSingleCell pins the printout of one quick cell, filtered-out
// cells and -v details included, byte for byte.
func TestRunSingleCell(t *testing.T) {
	stdout, stderr := runOut(t, "-quick", "-attack", "jamming", "-mech", "hybrid-comms", "-v")
	wantOut := gridHeader +
		"jamming            -                    -                    -                    ✓✓                   -                   \n" +
		"\nagreement with paper's Table III claims: 1/1 cells\n" + gridLegend
	wantErr := "  jamming × hybrid-comms: claimed=true measured=true — platoon holds (disbanded 0% vs 68%)\n"
	if stdout != wantOut {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout, wantOut)
	}
	if stderr != wantErr {
		t.Errorf("stderr:\n%s\nwant:\n%s", stderr, wantErr)
	}
}

// TestGridPrintout pins the printout of a quick one-row sub-grid whose
// cells take every mark but ✗C, and its -v details, byte for byte.
func TestGridPrintout(t *testing.T) {
	stdout, stderr := runOut(t, "-quick", "-attack", "replay", "-v")
	wantOut := gridHeader +
		"replay             ✓✓                   +U                   ✓✓                   ✓✓                   ··                  \n" +
		"\nagreement with paper's Table III claims: 4/5 cells\n" + gridLegend
	wantErr := "  replay × keys: claimed=true measured=true — spacing error 1.1m vs 7.8m undefended\n" +
		"  replay × rsu: claimed=false measured=true — spacing error 1.1m vs 7.8m undefended\n" +
		"  replay × control-algorithms: claimed=true measured=true — spacing error 1.1m vs 7.8m undefended\n" +
		"  replay × hybrid-comms: claimed=true measured=true — spacing error 1.0m vs 7.8m undefended\n" +
		"  replay × onboard: claimed=false measured=false — spacing error still 7.0m\n"
	if stdout != wantOut {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout, wantOut)
	}
	if stderr != wantErr {
		t.Errorf("stderr:\n%s\nwant:\n%s", stderr, wantErr)
	}
}

func TestRunBadFlag(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-notaflag"}, io.Discard, &stderr); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -notaflag") {
		t.Errorf("flag error not reported on stderr: %q", stderr.String())
	}
}

// TestForensicsIdenticalAcrossWorkers: the -forensics document and the
// -jsonl stream of a 2×2 sub-grid, whose rows share their undefended
// runs, are the same bytes at one and two workers.
func TestForensicsIdenticalAcrossWorkers(t *testing.T) {
	cfg := lab.DefaultConfig()
	cfg.Duration = 40 * sim.Second
	cfg.Vehicles = 6
	cfg.Spans = true
	var pairs []lab.Pair
	for _, a := range []string{"replay", "jamming"} {
		for _, m := range []string{"hybrid-comms", "onboard"} {
			pairs = append(pairs, lab.Pair{Attack: a, Mechanism: m})
		}
	}
	var docs, lines [][]byte
	for _, workers := range []int{1, 2} {
		tables, err := lab.Measure(cfg, lab.Plan{Cells: pairs}, workers)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := writeForensics(filepath.Join(dir, "f.json"), pairs, tables.Cells); err != nil {
			t.Fatal(err)
		}
		if err := writeJSONL(filepath.Join(dir, "g.jsonl"), pairs, tables.Cells); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, readFile(t, filepath.Join(dir, "f.json")))
		lines = append(lines, readFile(t, filepath.Join(dir, "g.jsonl")))
	}
	if !strings.Contains(string(docs[0]), `"undefended"`) {
		t.Fatalf("forensics document carries no attribution reports:\n%.300s", docs[0])
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("forensics document differs between 1 and 2 workers")
	}
	if !bytes.HasPrefix(lines[0], []byte(`{"index":0,"result":{"AttackKey":"replay","MechanismKey":"hybrid-comms",`)) ||
		bytes.Count(lines[0], []byte("\n")) != len(pairs) {
		t.Fatalf("jsonl is not one engine record per cell in grid order:\n%.200s", lines[0])
	}
	if !bytes.Equal(lines[0], lines[1]) {
		t.Fatal("jsonl differs between 1 and 2 workers")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
