package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"platoonsec/internal/lab"
	"platoonsec/internal/sim"
)

func TestRunSingleCell(t *testing.T) {
	// One quick cell keeps the test fast while exercising the grid
	// printer end to end.
	err := run([]string{"-quick", "-attack", "jamming", "-mech", "hybrid-comms"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-notaflag"}); err == nil {
		t.Fatal("unknown flag accepted")
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
