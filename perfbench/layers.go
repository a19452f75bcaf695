package main

import "strings"

const internalPrefix = "platoonsec/internal/"

// layerOfPackage maps every simulator package under internal/ to the
// layer its CPU samples are charged to. Most packages are their own
// layer; small helpers are folded into the layer that owns them. The
// coverage test walks internal/ and fails when a package is missing, so
// a new package cannot silently land in the "other" bucket.
var layerOfPackage = map[string]string{
	"attack":       "attack",
	"control":      "control",
	"defense":      "defense",
	"detmap":       "sim", // deterministic map iteration, used by every kernel client
	"engine":       "engine",
	"lab":          "lab",
	"mac":          "mac",
	"message":      "message",
	"metrics":      "scenario", // the run collector scenario reduces into a Result
	"obs":          "obs",
	"obs/span":     "obs",
	"obs/timeline": "obs",
	"phy":          "phy",
	"platoon":      "platoon",
	"privacy":      "privacy",
	"risk":         "lab", // Table II risk derivation, consumed by the lab
	"rsu":          "rsu",
	"scenario":     "scenario",
	"security":     "security",
	"service":      "service",
	"sim":          "sim",
	"taxonomy":     "lab", // the Table II/III registry the lab enumerates
	"testworld":    "scenario",
	"trace":        "obs", // JSONL event writer
	"vehicle":      "vehicle",
	"world":        "world",
}

// Layers lists every bucket a CPU sample can land in, in report order.
// "runtime" holds samples with no simulator, server or benchmark frame
// (GC workers, the scheduler); "benchmark" holds the benchmark's own
// code and its HTTP client; "other" holds unmapped packages and must
// stay at zero.
var Layers = []string{
	"security", "scenario", "lab", "engine", "sim", "phy", "mac",
	"platoon", "control", "vehicle", "message", "attack", "defense",
	"world", "service", "rsu", "privacy", "obs",
	"runtime", "benchmark", "other",
}

// layerOfFunc returns the layer of a simulator function symbol such as
// "platoonsec/internal/security.(*Verifier).Verify", and false for any
// symbol outside platoonsec/internal.
func layerOfFunc(name string) (string, bool) {
	pkg := funcPackage(name)
	rest, ok := strings.CutPrefix(pkg, internalPrefix)
	if !ok {
		return "", false
	}
	if l, ok := layerOfPackage[rest]; ok {
		return l, true
	}
	return "other", true
}

// funcPackage extracts the import path from a Go function symbol:
// everything up to the first dot after the last slash, ignoring any
// generic instantiation suffix (which may itself contain slashes).
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// attribute charges one sampled stack (leaf first) to a layer. The
// innermost simulator frame wins, so crypto/ed25519 under
// Verifier.Verify counts as security and runtime.mallocgc under the
// MAC counts as mac. Stacks with no simulator frame go to the HTTP
// server (service), the benchmark's own code and client, or runtime.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOfFunc(fn); ok {
			return l
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net/http.(*conn).") {
			return "service"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") ||
			strings.HasPrefix(fn, "net/http.(*persistConn).") ||
			strings.HasPrefix(fn, "net/http.(*Transport).") ||
			strings.HasPrefix(fn, "net/http.(*Client).") {
			return "benchmark"
		}
	}
	return "runtime"
}
