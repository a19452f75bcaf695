// Command attacklab sweeps the full attack × defense-mechanism matrix —
// including pairings the paper does NOT claim — and prints a grid
// comparing measured mitigation against the paper's Table III claims.
// The grid is one lab.Plan measured in parallel on the experiment
// engine, each attack's undefended run shared by its row; the output is
// identical for any worker count because every run is deterministic
// and emission follows the grid order.
//
//	attacklab [-quick] [-seed N] [-attack KEY] [-mech KEY] [-v]
//	          [-workers N] [-jsonl FILE] [-stats] [-obs]
//	          [-forensics FILE] [-cpuprofile FILE] [-memprofile FILE]
//
//	-workers N       parallel run workers (0 = GOMAXPROCS)
//	-jsonl FILE      write per-cell results as JSON lines to FILE
//	-stats           print engine telemetry (runs/sec, p50/p95) to stderr
//	-obs             attach the flight recorder to every run and print
//	                 the aggregated observability counters to stderr
//	-forensics FILE  attach the causal span tracer to every run and
//	                 write the per-cell attack→effect attribution
//	                 reports (undefended and defended) as JSON to FILE;
//	                 the document is byte-identical at any worker count
//	-cpuprofile FILE write a pprof CPU profile of the sweep
//	-memprofile FILE write a pprof heap profile after the sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"platoonsec/internal/engine"
	"platoonsec/internal/lab"
	"platoonsec/internal/obs/span"
	"platoonsec/internal/scenario"
	"platoonsec/internal/sim"
	"platoonsec/internal/taxonomy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "attacklab:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("attacklab", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shorter runs")
	seed := fs.Int64("seed", 1, "random seed")
	onlyAttack := fs.String("attack", "", "restrict to one attack key")
	onlyMech := fs.String("mech", "", "restrict to one mechanism key")
	verbose := fs.Bool("v", false, "print per-cell details")
	workers := fs.Int("workers", 0, "parallel run workers (0 = GOMAXPROCS)")
	jsonlFile := fs.String("jsonl", "", "write per-cell results as JSON lines to FILE")
	stats := fs.Bool("stats", false, "print engine telemetry to stderr")
	obsOn := fs.Bool("obs", false, "attach the flight recorder and print aggregated counters to stderr")
	forensicsFile := fs.String("forensics", "", "write per-cell attack→effect attribution reports as JSON to FILE")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to FILE")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := lab.DefaultConfig()
	cfg.Seed = *seed
	cfg.Observe = *obsOn
	cfg.Spans = *forensicsFile != ""
	if *quick {
		cfg.Duration = 40 * sim.Second
		cfg.Vehicles = 6
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

	attacks := taxonomy.Attacks()
	mechs := taxonomy.Mechanisms()

	// The measured cells, row-major over the filtered grid.
	var pairs []lab.Pair
	for _, a := range attacks {
		if *onlyAttack != "" && a.Key != *onlyAttack {
			continue
		}
		for _, m := range mechs {
			if *onlyMech != "" && m.Key != *onlyMech {
				continue
			}
			pairs = append(pairs, lab.Pair{Attack: a.Key, Mechanism: m.Key})
		}
	}
	tables, err := lab.Measure(cfg, lab.Plan{Cells: pairs}, *workers)
	if err != nil {
		return err
	}
	cells := tables.Cells
	if *jsonlFile != "" {
		if err := writeJSONL(*jsonlFile, pairs, cells); err != nil {
			return err
		}
	}

	fmt.Printf("%-18s", "attack \\ mech")
	for _, m := range mechs {
		fmt.Printf(" %-20s", m.Key)
	}
	fmt.Println()

	agree, total := 0, 0
	for _, a := range attacks {
		if *onlyAttack != "" && a.Key != *onlyAttack {
			continue
		}
		fmt.Printf("%-18s", a.Key)
		for _, m := range mechs {
			cell, ok := cells[lab.Pair{Attack: a.Key, Mechanism: m.Key}]
			if !ok {
				fmt.Printf(" %-20s", "-")
				continue
			}
			fmt.Printf(" %-20s", cellMark(cell))
			total++
			if cell.Mitigated == cell.Claimed {
				agree++
			}
			if *verbose {
				fmt.Fprintf(os.Stderr, "  %s × %s: claimed=%v measured=%v — %s\n",
					a.Key, m.Key, cell.Claimed, cell.Mitigated, cell.Note)
			}
		}
		fmt.Println()
	}
	fmt.Printf("\nagreement with paper's Table III claims: %d/%d cells\n", agree, total)
	fmt.Println("legend: ✓✓ claimed & mitigated   ·· unclaimed & not mitigated")
	fmt.Println("        ✗C claimed but NOT mitigated   +U mitigated beyond claim")
	if *forensicsFile != "" {
		if werr := writeForensics(*forensicsFile, pairs, cells); werr != nil {
			return werr
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "engine:", tables.Telemetry.String())
	}
	if counters := cellCounters(pairs, cells); *obsOn && len(counters) > 0 {
		fmt.Fprintln(os.Stderr, "obs counters (all cells):")
		names := make([]string, 0, len(counters))
		for name := range counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "  %-22s %d\n", name, counters[name])
		}
	}
	return nil
}

// cellCounters sums the flight-recorder counters of each cell's two
// runs. An undefended run shared by several cells counts once per cell.
func cellCounters(pairs []lab.Pair, cells map[lab.Pair]*lab.Cell) map[string]uint64 {
	merged := make(map[string]uint64)
	for _, p := range pairs {
		for _, r := range []*scenario.Result{cells[p].Undefended, cells[p].Defended} {
			if r.Obs == nil {
				continue
			}
			for name, v := range r.Obs.Counters {
				merged[name] += v
			}
		}
	}
	return merged
}

// writeJSONL writes one engine.Record line per cell in grid order,
// the format an engine results sink streams.
func writeJSONL(path string, pairs []lab.Pair, cells map[lab.Pair]*lab.Cell) error {
	return writeFile(path, "jsonl", func(enc *json.Encoder) error {
		for i, p := range pairs {
			if err := enc.Encode(engine.Record{Index: i, Result: cells[p]}); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeFile creates path and fills it through a JSON encoder,
// labelling any create, encode or close error with what the file is.
func writeFile(path, label string, write func(*json.Encoder) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%s file: %w", label, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s file: %w", label, cerr)
		}
	}()
	if err := write(json.NewEncoder(f)); err != nil {
		return fmt.Errorf("%s file: %w", label, err)
	}
	return nil
}

// writeForensics dumps every cell's causal attribution reports as one
// JSON document, in grid (row-major) order. Each run is deterministic
// and emission order is fixed, so the bytes are identical at any
// worker count — the file is CI-artifact material.
func writeForensics(path string, pairs []lab.Pair, cells map[lab.Pair]*lab.Cell) error {
	type cellForensics struct {
		Attack     string          `json:"attack"`
		Mechanism  string          `json:"mechanism"`
		Undefended *span.Forensics `json:"undefended,omitempty"`
		Defended   *span.Forensics `json:"defended,omitempty"`
	}
	doc := make([]cellForensics, len(pairs))
	for i, p := range pairs {
		doc[i] = cellForensics{
			Attack:     p.Attack,
			Mechanism:  p.Mechanism,
			Undefended: cells[p].Undefended.Forensics,
			Defended:   cells[p].Defended.Forensics,
		}
	}
	return writeFile(path, "forensics", func(enc *json.Encoder) error {
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}

func cellMark(c *lab.Cell) string {
	switch {
	case c.Claimed && c.Mitigated:
		return "✓✓"
	case c.Claimed && !c.Mitigated:
		return "✗C " + c.Note
	case !c.Claimed && c.Mitigated:
		return "+U"
	default:
		return "··"
	}
}
