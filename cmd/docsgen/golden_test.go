package main

// Golden gates for every generated document: the committed docs/ tree
// (TestGoldenDocsTree) and docs_tables_output.txt
// (TestGoldenTablesOutput) must match `docsgen` output byte-for-byte,
// so a taxonomy, verdict or measured-number change that shifts a page
// or a table fails CI instead of silently drifting. Both tests compare
// against one shared measurement of the paper plan. After an
// intentional change, regenerate with:
//
//	go test ./cmd/docsgen -run 'TestGolden' -update
//
// (equivalently `make docs`).

import (
	"bytes"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"platoonsec/internal/lab"
)

var update = flag.Bool("update", false, "rewrite docs/ and docs_tables_output.txt from current output")

// generated measures the paper plan once per test binary and renders
// every generated document from it.
var generated = sync.OnceValues(func() (map[string][]byte, error) {
	return generate(lab.DefaultConfig())
})

// goldenPages returns the generated documents, skipping the test where
// the full measurement is impractical.
func goldenPages(t *testing.T) map[string][]byte {
	t.Helper()
	if testing.Short() {
		t.Skip("regenerating the reference measures the full Table II + III plan (~5s)")
	}
	if raceEnabled {
		t.Skip("full sweep takes minutes under the race detector; covered by the non-race test job")
	}
	pages, err := generated()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return pages
}

// docsRoot is the committed reference tree, relative to this package.
var docsRoot = filepath.Join("..", "..", "docs")

// checkGolden compares (or, with -update, rewrites) the committed file
// for each page path against its generated bytes.
func checkGolden(t *testing.T, pages map[string][]byte) {
	t.Helper()
	if *update {
		if err := writeTree(docsRoot, pages); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %d files under %s", len(pages), docsRoot)
		return
	}
	for path, want := range pages {
		name := filepath.Join("docs", filepath.FromSlash(path))
		got, err := os.ReadFile(filepath.Join(docsRoot, filepath.FromSlash(path)))
		if err != nil {
			t.Errorf("missing generated file: %v (run `make docs`)", err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from docsgen output at line %d (run `make docs` after an intentional change)",
				name, firstDiffLine(got, want))
		}
	}
}

func TestGoldenDocsTree(t *testing.T) {
	pages := goldenPages(t)
	tree := make(map[string][]byte, len(pages))
	for path, page := range pages {
		if path != transcript {
			tree[path] = page
		}
	}
	checkGolden(t, tree)
	if *update {
		return
	}
	// Stray pages would survive writeTree and rot unnoticed: every .md
	// under docs/ must be one docsgen emits.
	err := filepath.WalkDir(docsRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".md") {
			return nil
		}
		rel, err := filepath.Rel(docsRoot, path)
		if err != nil {
			return err
		}
		if _, ok := tree[filepath.ToSlash(rel)]; !ok {
			t.Errorf("docs/%s is not generated by docsgen; remove it or teach docsgen about it", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoldenTablesOutput checks the paper-tables transcript (Tables
// I–III and the risk matrix) rendered from the shared measurement.
func TestGoldenTablesOutput(t *testing.T) {
	pages := goldenPages(t)
	page, ok := pages[transcript]
	if !ok {
		t.Fatalf("docsgen emitted no %s", transcript)
	}
	checkGolden(t, map[string][]byte{transcript: page})
}

// firstDiffLine returns the 1-based number of the first line where a
// and b differ.
func firstDiffLine(a, b []byte) int {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	i := 0
	for i < len(al) && i < len(bl) && al[i] == bl[i] {
		i++
	}
	return i + 1
}

// TestRepoMarkdownLinks runs the relative-link checker over the
// hand-written docs and the generated reference. Fast: no simulation.
func TestRepoMarkdownLinks(t *testing.T) {
	paths := []string{
		filepath.Join("..", "..", "README.md"),
		filepath.Join("..", "..", "DESIGN.md"),
		filepath.Join("..", "..", "EXPERIMENTS.md"),
		filepath.Join("..", "..", "docs"),
	}
	broken, err := checkMarkdownLinks(paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range broken {
		t.Error(b)
	}
}
