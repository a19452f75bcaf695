package world

// The metamorphic shard-invariance suite: the world's central
// contract is that Shards and Workers are pure throughput knobs —
// every observable (the Result struct, the JSONL event stream, the
// forensics JSON) is byte-identical at any shard count and any worker
// count. These tests pin that for shard counts 1/2/4/GOMAXPROCS and
// worker counts 1/4 across baseline and both attacks. On mismatch the
// divergent artifacts are written under world-metamorphic/ (uploaded
// by CI) so the break is diffable.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"platoonsec/internal/sim"
)

// variant is one (shards, workers) cell of the invariance matrix.
type variant struct {
	shards, workers int
}

func variants() []variant {
	vs := []variant{
		{shards: 1, workers: 1},
		{shards: 2, workers: 1},
		{shards: 2, workers: 4},
		{shards: 4, workers: 1},
		{shards: 4, workers: 4},
	}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		vs = append(vs, variant{shards: p, workers: p})
	}
	return vs
}

// capture runs one variant and returns its three observables.
func capture(t *testing.T, o Options, v variant) (*Result, []byte, []byte) {
	t.Helper()
	o.Shards = v.shards
	o.Workers = v.workers
	var events bytes.Buffer
	o.EventsJSONL = &events
	r, err := Run(o)
	if err != nil {
		t.Fatalf("shards=%d workers=%d: %v", v.shards, v.workers, err)
	}
	// Migrations is the one documented partition-dependent diagnostic;
	// mask it out of the invariance comparison.
	r.Migrations = 0
	var forensics []byte
	if r.Forensics != nil {
		forensics, err = json.MarshalIndent(r.Forensics, "", "  ")
		if err != nil {
			t.Fatalf("shards=%d workers=%d: marshal forensics: %v", v.shards, v.workers, err)
		}
	}
	return r, events.Bytes(), forensics
}

// dumpArtifacts writes the reference and divergent observables for CI
// to pick up.
func dumpArtifacts(t *testing.T, tag string, refEvents, gotEvents, refForensics, gotForensics []byte) {
	t.Helper()
	dir := filepath.Join("world-metamorphic", tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("cannot write artifacts: %v", err)
		return
	}
	for name, b := range map[string][]byte{
		"events.ref.jsonl":   refEvents,
		"events.got.jsonl":   gotEvents,
		"forensics.ref.json": refForensics,
		"forensics.got.json": gotForensics,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Logf("cannot write %s: %v", name, err)
		}
	}
	t.Logf("divergence artifacts written to %s", dir)
}

// TestShardInvariance is the headline metamorphic property: for each
// scenario flavour, every (shards, workers) variant reproduces the
// single-shard single-worker run exactly.
func TestShardInvariance(t *testing.T) {
	flavours := []struct {
		name string
		mut  func(*Options)
	}{
		{"baseline", func(o *Options) {}},
		{"jamming", func(o *Options) { o.AttackKey = "jamming" }},
		{"sybil", func(o *Options) { o.AttackKey = "sybil" }},
	}
	for _, fl := range flavours {
		fl := fl
		t.Run(fl.name, func(t *testing.T) {
			t.Parallel()
			o := small()
			o.Duration = 40 * sim.Second
			o.Spans = true
			fl.mut(&o)
			ref, refEvents, refForensics := capture(t, o, variant{shards: 1, workers: 1})
			for _, v := range variants()[1:] {
				got, gotEvents, gotForensics := capture(t, o, v)
				tag := fmt.Sprintf("%s-s%d-w%d", fl.name, v.shards, v.workers)
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("%s: Result diverged from 1-shard reference:\nref: %+v\ngot: %+v", tag, ref, got)
				}
				if !bytes.Equal(refEvents, gotEvents) {
					t.Errorf("%s: JSONL event stream diverged (%d vs %d bytes)", tag, len(refEvents), len(gotEvents))
					dumpArtifacts(t, tag, refEvents, gotEvents, refForensics, gotForensics)
				}
				if !bytes.Equal(refForensics, gotForensics) {
					t.Errorf("%s: forensics JSON diverged (%d vs %d bytes)", tag, len(refForensics), len(gotForensics))
					dumpArtifacts(t, tag, refEvents, gotEvents, refForensics, gotForensics)
				}
			}
		})
	}
}

// TestShardInvarianceSeeds widens the property over seeds (events
// only, spans off — the cheap wide net).
func TestShardInvarianceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is not short")
	}
	for seed := int64(2); seed <= 6; seed++ {
		o := small()
		o.Seed = seed
		o.Duration = 20 * sim.Second
		o.AttackKey = "sybil"
		ref, refEvents, _ := capture(t, o, variant{shards: 1, workers: 1})
		for _, v := range []variant{{shards: 3, workers: 2}, {shards: 5, workers: 4}} {
			got, gotEvents, _ := capture(t, o, v)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("seed %d shards=%d: Result diverged:\nref: %+v\ngot: %+v", seed, v.shards, ref, got)
			}
			if !bytes.Equal(refEvents, gotEvents) {
				t.Errorf("seed %d shards=%d: event stream diverged", seed, v.shards)
			}
		}
	}
}

// TestWorkersOnlyInvariance pins the engine-level half of the
// property in isolation: same sharding, different worker pools.
func TestWorkersOnlyInvariance(t *testing.T) {
	o := small()
	o.Duration = 20 * sim.Second
	o.Shards = 4
	ref, refEvents, _ := capture(t, o, variant{shards: 4, workers: 1})
	for _, workers := range []int{2, 4, 0} { // 0 = GOMAXPROCS
		got, gotEvents, _ := capture(t, o, variant{shards: 4, workers: workers})
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: Result diverged:\nref: %+v\ngot: %+v", workers, ref, got)
		}
		if !bytes.Equal(refEvents, gotEvents) {
			t.Errorf("workers=%d: event stream diverged", workers)
		}
	}
}

// TestShardOwnership pins shard-reported migration against the full
// scan it replaced: after every barrier each unit is owned by exactly
// the shard whose arc holds its position, each shard's units are in ID
// order, and the shards together own exactly the manager's population.
func TestShardOwnership(t *testing.T) {
	for _, fl := range []string{"", "jamming", "sybil"} {
		for _, shards := range []int{1, 2, 4} {
			o := small()
			o.Duration = 60 * sim.Second
			o.AttackKey = fl
			o.Shards = shards
			o.normalize()
			w := build(o)
			check := func() error {
				owned := 0
				for _, s := range w.shards {
					for i, u := range s.units {
						if home := w.shardIdx(u.PosM); home != s.idx {
							return fmt.Errorf("unit %d at %.3f m is owned by shard %d, its home is shard %d", u.ID, u.PosM, s.idx, home)
						}
						if i > 0 && s.units[i-1].ID >= u.ID {
							return fmt.Errorf("shard %d units out of ID order at %d", s.idx, i)
						}
						if w.mgr.Get(u.ID) != u {
							return fmt.Errorf("shard %d owns unit %d, which the manager does not hold", s.idx, u.ID)
						}
					}
					owned += len(s.units)
				}
				if owned != w.mgr.Len() {
					return fmt.Errorf("shards own %d units, manager holds %d", owned, w.mgr.Len())
				}
				return nil
			}
			if err := w.run(check); err != nil {
				t.Fatalf("attack=%q shards=%d: %v", fl, shards, err)
			}
			if shards > 1 && w.migrations == 0 {
				t.Errorf("attack=%q shards=%d: no migration in %v, so the invariant was not exercised", fl, shards, o.Duration)
			}
		}
	}
}

// TestMigrationSkipsAbsorbedUnit covers the one race shard-reported
// migration must settle: a unit that left its shard's arc in the same
// epoch its join was accepted is absorbed at step 3, so step 6 must
// not re-home it.
func TestMigrationSkipsAbsorbedUnit(t *testing.T) {
	o := small()
	o.Platoons, o.VehiclesPerPlatoon, o.FreeAgents = 1, 2, 1
	o.normalize()
	w := build(o)
	host, joiner := w.mgr.Get(1), w.mgr.Get(2)
	from := w.shards[w.shardIdx(joiner.PosM)]
	// The joiner drove into the other shard's arc this epoch.
	joiner.PosM = w.ring.wrap(joiner.PosM + w.ring.lengthM/2)
	from.leaving = append(from.leaving, joiner)
	from.proposals = append(from.proposals, proposal{atNS: 0, kind: propJoin, unit: host.ID, seq: 1, other: joiner.ID})
	if err := w.barrier(int64(o.Epoch)); err != nil {
		t.Fatal(err)
	}
	if w.mgr.Get(joiner.ID) != nil {
		t.Fatal("join was not applied")
	}
	for _, s := range w.shards {
		if _, owned := s.unitIndex(joiner.ID); owned {
			t.Errorf("shard %d re-homed unit %d after it was absorbed", s.idx, joiner.ID)
		}
	}
	if w.migrations != 0 {
		t.Errorf("counted %d migrations for an absorbed unit", w.migrations)
	}
}
