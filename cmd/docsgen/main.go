// Command docsgen regenerates every generated document from one
// measurement of the paper's tables: the rendered Tables I–III and
// risk matrix (docs_tables_output.txt, written next to the reference
// tree) and the attack/defense reference under docs/, an index plus
// one page per Table II attack and per Table III defense mechanism
// that combines the taxonomy registry with the measured reproduction
// numbers. Output is deterministic in the flags, so CI can require
// `make docs` to be a no-op on every PR.
//
//	docsgen [-out DIR] [-quick] [-seed N]
//	docsgen -check-links PATH ...
//
//	-out DIR         write the reference tree under DIR (default docs)
//	                 and the tables transcript beside it
//	-quick           shorter measurement runs (40 s, 6 vehicles)
//	-seed N          random seed for the measurement runs (default 1)
//	-check-links     do not generate; instead scan the given markdown
//	                 files (directories are walked for *.md) and fail
//	                 on any relative link whose target does not exist
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"platoonsec/internal/lab"
	"platoonsec/internal/sim"
	"platoonsec/internal/taxonomy"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "docsgen:", err)
		os.Exit(1)
	}
}

func run(args []string, errw io.Writer) error {
	fs := flag.NewFlagSet("docsgen", flag.ContinueOnError)
	outDir := fs.String("out", "docs", "output directory for the reference tree")
	quick := fs.Bool("quick", false, "shorter measurement runs")
	seed := fs.Int64("seed", 1, "random seed")
	checkLinks := fs.Bool("check-links", false, "check markdown links in the given paths instead of generating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checkLinks {
		if fs.NArg() == 0 {
			return fmt.Errorf("-check-links needs at least one file or directory")
		}
		broken, err := checkMarkdownLinks(fs.Args())
		if err != nil {
			return err
		}
		for _, b := range broken {
			//platoonvet:allow errcheck -- stderr diagnostics; the broken-link count below fails the command regardless
			fmt.Fprintln(errw, b)
		}
		if len(broken) > 0 {
			return fmt.Errorf("%d broken link(s)", len(broken))
		}
		return nil
	}

	cfg := lab.DefaultConfig()
	cfg.Seed = *seed
	if *quick {
		cfg.Duration = 40 * sim.Second
		cfg.Vehicles = 6
	}
	//platoonvet:allow errcheck -- stderr progress note; generation success is what matters
	fmt.Fprintln(errw, "docsgen: measuring Table II and Table III...")
	pages, err := generate(cfg)
	if err != nil {
		return err
	}
	if err := writeTree(*outDir, pages); err != nil {
		return err
	}
	//platoonvet:allow errcheck -- stderr progress note; the pages are already on disk
	fmt.Fprintf(errw, "docsgen: wrote %d files: the reference under %s and the tables transcript beside it\n", len(pages), *outDir)
	return nil
}

// transcript is the tables transcript's path relative to the docs
// root: beside the tree, where the index page links it.
const transcript = "../docs_tables_output.txt"

// generate measures the paper plan once and renders every generated
// document from it, keyed by path relative to the docs root: the
// reference tree and the tables transcript. Bytes are deterministic in
// cfg: the registry is in paper order and measured cells are looked up
// by key, never by map iteration.
func generate(cfg lab.Config) (map[string][]byte, error) {
	// Span tracing rides along so every attack page can quote the
	// measured causal chain from injection to platoon effect.
	cfg.Spans = true
	t, err := lab.Measure(cfg, lab.PaperPlan(), 0)
	if err != nil {
		return nil, err
	}
	pages := make(map[string][]byte)
	pages["README.md"] = indexPage(cfg, t.Outcomes)
	for _, a := range taxonomy.Attacks() {
		pages["attacks/"+a.Key+".md"] = attackPage(a, t.Outcomes[a.Key], t.Cells)
	}
	for _, m := range taxonomy.Mechanisms() {
		pages["defenses/"+m.Key+".md"] = mechanismPage(m, t.Cells)
	}
	for path, page := range apiPages() {
		pages[path] = page
	}
	pages[transcript] = renderTables(t)
	return pages, nil
}

// shell describes the measurement configuration on every page.
func shell(cfg lab.Config) string {
	return fmt.Sprintf("seed %d, %g simulated seconds, %d vehicles",
		cfg.Seed, float64(cfg.Duration)/float64(sim.Second), cfg.Vehicles)
}

const genNote = "Generated by `cmd/docsgen` — do not edit by hand; regenerate with `make docs`."

func indexPage(cfg lab.Config, outcomes map[string]*lab.AttackOutcome) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# Platoon attack/defense reference\n\n")
	fmt.Fprintf(&b, "%s\n\n", genNote)
	fmt.Fprintf(&b, "One page per attack class of Table II and per defense mechanism\n")
	fmt.Fprintf(&b, "family of Table III from Taylor et al., *Vehicular Platoon\n")
	fmt.Fprintf(&b, "Communication: Cybersecurity Threats and Open Challenges* (DSN-W\n")
	fmt.Fprintf(&b, "2021), each carrying the simulator's measured reproduction numbers\n")
	fmt.Fprintf(&b, "(%s).\n\n", shell(cfg))

	fmt.Fprintf(&b, "## Attacks (Table II)\n\n")
	fmt.Fprintf(&b, "| Attack | Properties compromised | Section | Measured |\n")
	fmt.Fprintf(&b, "|---|---|---|---|\n")
	for _, a := range taxonomy.Attacks() {
		fmt.Fprintf(&b, "| [%s](attacks/%s.md) | %s | %s | %s |\n",
			a.Title, a.Key, propertyList(a.Properties), a.Section, statusOf(outcomes[a.Key]))
	}
	fmt.Fprintf(&b, "\n## Defense mechanisms (Table III)\n\n")
	fmt.Fprintf(&b, "| Mechanism | Claims to mitigate | Section |\n")
	fmt.Fprintf(&b, "|---|---|---|\n")
	for _, m := range taxonomy.Mechanisms() {
		links := make([]string, len(m.Mitigates))
		for i, k := range m.Mitigates {
			links[i] = fmt.Sprintf("[%s](attacks/%s.md)", k, k)
		}
		fmt.Fprintf(&b, "| [%s](defenses/%s.md) | %s | %s |\n",
			m.Title, m.Key, strings.Join(links, ", "), m.Section)
	}
	fmt.Fprintf(&b, "\n## Simulation as a service\n\n")
	fmt.Fprintf(&b, "The [platoond HTTP API reference](api/README.md) documents the\n")
	fmt.Fprintf(&b, "`cmd/platoond` daemon: every endpoint, the canonical request digest,\n")
	fmt.Fprintf(&b, "and the content-addressed result cache semantics.\n")
	fmt.Fprintf(&b, "\nThe rendered paper tables with the same numbers live in\n")
	fmt.Fprintf(&b, "[docs_tables_output.txt](../docs_tables_output.txt); the experiment\n")
	fmt.Fprintf(&b, "definitions are in [DESIGN.md](../DESIGN.md) and the measured\n")
	fmt.Fprintf(&b, "write-ups in [EXPERIMENTS.md](../EXPERIMENTS.md).\n")
	return []byte(b.String())
}

func attackPage(a taxonomy.AttackClass, o *lab.AttackOutcome, cells map[lab.Pair]*lab.Cell) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n\n", a.Title)
	fmt.Fprintf(&b, "%s\n\n", genNote)
	insider := "no"
	if a.Insider {
		insider = "yes"
	}
	fmt.Fprintf(&b, "**Key:** `%s` · **Paper section:** %s · **Feasibility:** %d/5 · **Insider:** %s\n\n",
		a.Key, a.Section, a.Feasibility, insider)
	fmt.Fprintf(&b, "%s.\n\n", strings.ToUpper(a.Summary[:1])+a.Summary[1:])
	fmt.Fprintf(&b, "## Security properties compromised\n\n")
	for _, p := range a.Properties {
		fmt.Fprintf(&b, "- %s\n", p)
	}
	fmt.Fprintf(&b, "\n## Assets targeted\n\n")
	for _, as := range a.Assets {
		fmt.Fprintf(&b, "- %s\n", as)
	}
	fmt.Fprintf(&b, "\n## Measured impact (Table II reproduction)\n\n")
	if o != nil {
		fmt.Fprintf(&b, "**%s** — %s.\n\n", statusOf(o), o.Summary)
	}
	if chain := causalChain(o); chain != "" {
		fmt.Fprintf(&b, "## Causal chain\n\n")
		fmt.Fprintf(&b, "The span tracer's headline provenance chain for the undefended\n")
		fmt.Fprintf(&b, "run — each hop is a recorded span linking the attacker's frame (or\n")
		fmt.Fprintf(&b, "arming event) to the measured platoon effect, rendered root first\n")
		fmt.Fprintf(&b, "as `kind[subject]@seconds`:\n\n")
		fmt.Fprintf(&b, "```\n%s\n```\n\n", strings.ReplaceAll(chain, " -> ", "\n  -> "))
		fmt.Fprintf(&b, "Reproduce with `platoonsim -attack %s -forensics`.\n\n", a.Key)
	}
	fmt.Fprintf(&b, "## Trust boundary\n\n")
	if len(a.Injects) == 0 {
		fmt.Fprintf(&b, "This attack is purely passive: it injects no data, so the taint\n")
		fmt.Fprintf(&b, "analyzer has nothing to seed and no sanitizer applies. Defenses are\n")
		fmt.Fprintf(&b, "confidentiality measures, not data-flow gates.\n\n")
	} else {
		fmt.Fprintf(&b, "Injection sites — `internal/attack` functions carrying a\n")
		fmt.Fprintf(&b, "`//platoonvet:taint-source` directive, where the `taint` analyzer\n")
		fmt.Fprintf(&b, "seeds this attack's adversary-controlled data:\n\n")
		for _, s := range a.Injects {
			fmt.Fprintf(&b, "- `attack.%s`\n", s)
		}
		fmt.Fprintf(&b, "\n")
		if len(a.GatedBy) == 0 {
			fmt.Fprintf(&b, "No payload sanitizer gates this attack: it acts below the message\n")
			fmt.Fprintf(&b, "boundary, where verification cannot reach and only physical-layer\n")
			fmt.Fprintf(&b, "defenses help.\n\n")
		} else {
			fmt.Fprintf(&b, "Sanitizers — `//platoonvet:sanitizer` functions standing between the\n")
			fmt.Fprintf(&b, "injected fields and the trusted sinks; the analyzers prove no\n")
			fmt.Fprintf(&b, "injected value reaches a control decision without passing one:\n\n")
			for _, s := range a.GatedBy {
				fmt.Fprintf(&b, "- `%s`\n", s)
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	fmt.Fprintf(&b, "## Countered by (Table III claims, measured)\n\n")
	fmt.Fprintf(&b, "| Mechanism | Measured verdict | Note |\n")
	fmt.Fprintf(&b, "|---|---|---|\n")
	for _, m := range taxonomy.Mechanisms() {
		cell := cells[lab.Pair{Attack: a.Key, Mechanism: m.Key}]
		if cell == nil {
			continue
		}
		fmt.Fprintf(&b, "| [%s](../defenses/%s.md) | %s | %s |\n",
			m.Title, m.Key, verdictOf(cell), cell.Note)
	}
	fmt.Fprintf(&b, "\n[Back to the reference index](../README.md)\n")
	return []byte(b.String())
}

func mechanismPage(m taxonomy.Mechanism, cells map[lab.Pair]*lab.Cell) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n\n", m.Title)
	fmt.Fprintf(&b, "%s\n\n", genNote)
	fmt.Fprintf(&b, "**Key:** `%s` · **Paper section:** %s\n\n", m.Key, m.Section)
	fmt.Fprintf(&b, "## Open challenge\n\n")
	fmt.Fprintf(&b, "%s.\n\n", strings.ToUpper(m.OpenChallenge[:1])+m.OpenChallenge[1:])
	fmt.Fprintf(&b, "## Claimed mitigations, measured\n\n")
	fmt.Fprintf(&b, "| Attack | Measured verdict | Note |\n")
	fmt.Fprintf(&b, "|---|---|---|\n")
	for _, key := range m.Mitigates {
		cell := cells[lab.Pair{Attack: key, Mechanism: m.Key}]
		if cell == nil {
			continue
		}
		title := key
		if a, ok := taxonomy.AttackByKey(key); ok {
			title = a.Title
		}
		fmt.Fprintf(&b, "| [%s](../attacks/%s.md) | %s | %s |\n",
			title, key, verdictOf(cell), cell.Note)
	}
	fmt.Fprintf(&b, "\n[Back to the reference index](../README.md)\n")
	return []byte(b.String())
}

func propertyList(ps []taxonomy.Property) string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return strings.Join(out, ", ")
}

// causalChain returns the attack page's provenance excerpt: the
// headline attributed chain from the attacked run's forensics report,
// or "" when spans were not collected.
func causalChain(o *lab.AttackOutcome) string {
	if o == nil || o.Attacked == nil {
		return ""
	}
	return o.Attacked.Forensics.TopChain()
}

func statusOf(o *lab.AttackOutcome) string {
	if o == nil {
		return "-"
	}
	if o.PropertyHeld {
		return "REPRODUCED"
	}
	return "NOT REPRODUCED"
}

func verdictOf(c *lab.Cell) string {
	if c.Mitigated {
		return "MITIGATED"
	}
	return "NOT MITIGATED"
}

// writeTree writes the pages under dir in sorted path order, creating
// subdirectories as needed.
func writeTree(dir string, pages map[string][]byte) error {
	paths := make([]string, 0, len(pages))
	for p := range pages {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		full := filepath.Join(dir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, pages[p], 0o644); err != nil {
			return err
		}
	}
	return nil
}
