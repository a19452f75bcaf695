package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasALayer walks internal/ and requires every
// package (the static analyzers under internal/analysis excepted) to map
// to a named layer, so a new package cannot land in "other" unnoticed.
func TestEveryInternalPackageHasALayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "analysis" || strings.HasPrefix(rel, "analysis/") || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if rel != "." && hasLibraryGo(t, path) {
			seen[rel] = true
			l, ok := layerOfPackage[rel]
			if !ok {
				t.Errorf("internal/%s has no layer in layerOfPackage", rel)
			} else if l == "other" || !slices.Contains(Layers, l) {
				t.Errorf("internal/%s maps to %q, which is not a named layer", rel, l)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 20 {
		t.Fatalf("found only %d packages under %s; is the test running from perfbench/?", len(seen), root)
	}
	for pkg := range layerOfPackage {
		if !seen[pkg] {
			t.Errorf("layerOfPackage maps internal/%s, which no longer exists", pkg)
		}
	}
}

func hasLibraryGo(t *testing.T, dir string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"platoonsec/internal/security.(*Verifier).Verify":           "platoonsec/internal/security",
		"platoonsec/internal/obs/span.(*Store).Add":                 "platoonsec/internal/obs/span",
		"platoonsec/internal/world.(*World).runShards.func1":        "platoonsec/internal/world",
		"platoonsec/internal/engine.Sweep[go.shape.*uint8].func1":   "platoonsec/internal/engine",
		"platoonsec/internal/engine.Sweep[platoonsec/internal/x.T]": "platoonsec/internal/engine",
		"crypto/ed25519.Verify":                                     "crypto/ed25519",
		"runtime.mallocgc":                                          "runtime",
		"main.main":                                                 "main",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestAttributeInnermostSimulatorFrameWins(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"crypto/internal/edwards25519.(*Point).ScalarMult", "crypto/ed25519.Verify",
			"platoonsec/internal/security.(*Verifier).Verify", "platoonsec/internal/platoon.(*Agent).onRx",
			"platoonsec/internal/sim.(*Kernel).Run"}, "security"},
		{[]string{"runtime.mallocgc", "platoonsec/internal/mac.(*Bus).Send", "platoonsec/internal/security.(*Signer).Seal"}, "mac"},
		{[]string{"platoonsec/internal/obs/timeline.(*Timeline).Record", "platoonsec/internal/world.(*World).run"}, "obs"},
		{[]string{"encoding/json.Marshal", "platoonsec/internal/service.(*Server).execute", "net/http.(*conn).serve"}, "service"},
		{[]string{"syscall.Syscall", "net/http.(*conn).readRequest", "net/http.(*conn).serve"}, "service"},
		{[]string{"crypto/sha256.Sum256", "main.(*platoondSession).send"}, "benchmark"},
		{[]string{"syscall.write", "net/http.(*persistConn).writeLoop"}, "benchmark"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"platoonsec/internal/newpkg.F"}, "other"},
		{nil, "runtime"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}
