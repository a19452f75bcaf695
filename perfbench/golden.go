package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"platoonsec/internal/scenario"
	"platoonsec/internal/world"
)

// goldenDigests are the output digests the seed code produced for every
// input the tables and world workloads can draw, keyed by simulation
// seed. A later change that alters any output byte fails verification.
// Regenerate (only when outputs are meant to change) with
//
//	bash perfbench/run.sh --write-golden perfbench/golden.json
type goldenDigests struct {
	// Tables maps a simulation seed to its batch's per-run digests in
	// index order.
	Tables map[string][]string `json:"tables"`
	// World maps a world seed to its run's digest.
	World map[string]string `json:"world"`
}

//go:embed golden.json
var goldenJSON []byte

var golden = func() goldenDigests {
	var g goldenDigests
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return g
}()

// scenarioDigest is the hex SHA-256 of a result's JSON with the
// observability snapshot stripped, so traced and untraced runs of the
// same options digest identically.
func scenarioDigest(r *scenario.Result) (string, error) {
	c := *r
	c.Obs = nil
	return jsonDigest(&c)
}

// worldDigest is the hex SHA-256 of a world result's JSON with the
// timeline stripped.
func worldDigest(r *world.Result) (string, error) {
	c := *r
	c.Timeline = nil
	return jsonDigest(&c)
}

func jsonDigest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// writeGolden recomputes every pool input's digests and writes them to
// path.
func writeGolden(path string) error {
	g := goldenDigests{Tables: map[string][]string{}, World: map[string]string{}}
	for _, seed := range tablesPool {
		rep := scenario.SweepReport(context.Background(), tablesBatch(seed, false), scenario.SweepConfig{Workers: workers})
		if rep.Err != nil {
			return fmt.Errorf("tables seed %d run %d: %w", seed, rep.ErrIndex, rep.Err)
		}
		for _, r := range rep.Results {
			d, err := scenarioDigest(r)
			if err != nil {
				return err
			}
			g.Tables[fmt.Sprint(seed)] = append(g.Tables[fmt.Sprint(seed)], d)
		}
	}
	for _, seed := range worldPool {
		r, err := world.Run(worldOptions(seed, false))
		if err != nil {
			return fmt.Errorf("world seed %d: %w", seed, err)
		}
		if g.World[fmt.Sprint(seed)], err = worldDigest(r); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
