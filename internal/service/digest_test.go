package service

import (
	"encoding/json"
	"testing"

	"platoonsec/internal/message"
)

// digestOf normalizes and digests, failing the test on error.
func digestOf(t *testing.T, r RunRequest) string {
	t.Helper()
	if err := r.Normalize(); err != nil {
		t.Fatalf("normalize %+v: %v", r, err)
	}
	d, err := Digest(&r)
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	return d
}

// TestDigestDefaultsEqualExplicit is the canonicalization property: a
// request relying on defaults and one spelling every default out must
// digest identically, because they describe the same experiment.
func TestDigestDefaultsEqualExplicit(t *testing.T) {
	cases := []struct {
		name               string
		implicit, explicit RunRequest
	}{
		{
			"baseline zero values",
			RunRequest{},
			RunRequest{Seed: 1, DurationSec: 60, Vehicles: 8, AttackStartSec: 10},
		},
		{
			"jamming power default",
			RunRequest{Attack: "jamming"},
			RunRequest{Seed: 1, DurationSec: 60, Vehicles: 8, Attack: "jamming", AttackStartSec: 10, JammerPowerDBm: 40},
		},
		{
			"sybil ghosts default",
			RunRequest{Attack: "sybil", Seed: 9},
			RunRequest{Seed: 9, DurationSec: 60, Vehicles: 8, Attack: "sybil", AttackStartSec: 10, SybilGhosts: 5},
		},
		{
			"fake-maneuver variant default",
			RunRequest{Attack: "fake-maneuver"},
			RunRequest{Seed: 1, Attack: "fake-maneuver", FakeManeuverVariant: "split"},
		},
		{
			"defense order and duplicates",
			RunRequest{Defense: []string{"vpd-ada", "pki", "vpd-ada"}},
			RunRequest{Defense: []string{"pki", "vpd-ada"}},
		},
		{
			"joiner time default",
			RunRequest{WithJoiner: true},
			RunRequest{WithJoiner: true, JoinerAtSec: 15},
		},
		{
			"world sizes default",
			RunRequest{World: &WorldRequest{}},
			RunRequest{Seed: 1, DurationSec: 60, AttackStartSec: 10,
				World: &WorldRequest{Platoons: 40, VehiclesPerPlatoon: 8, FreeAgents: 10, EpochMS: 100}},
		},
		{
			"schema may be pre-stamped",
			RunRequest{Schema: SchemaVersion, Attack: "replay"},
			RunRequest{Attack: "replay"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			di, de := digestOf(t, c.implicit), digestOf(t, c.explicit)
			if di != de {
				t.Errorf("implicit %s != explicit %s", di, de)
			}
			if !ValidDigest(di) {
				t.Errorf("digest %q is not 64 hex chars", di)
			}
		})
	}
}

// TestDigestFieldOrderIrrelevant: JSON field order in the wire request
// cannot fork the digest, because canonical bytes come from the struct,
// not the wire bytes.
func TestDigestFieldOrderIrrelevant(t *testing.T) {
	a := `{"seed": 4, "attack": "replay", "duration_sec": 30}`
	b := `{"duration_sec": 30, "attack": "replay", "seed": 4}`
	var ra, rb RunRequest
	if err := json.Unmarshal([]byte(a), &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &rb); err != nil {
		t.Fatal(err)
	}
	if da, db := digestOf(t, ra), digestOf(t, rb); da != db {
		t.Errorf("field order forked the digest: %s vs %s", da, db)
	}
}

// TestDigestDistinguishesExperiments: any knob that changes the
// experiment must change the digest.
func TestDigestDistinguishesExperiments(t *testing.T) {
	base := RunRequest{Attack: "jamming"}
	variants := map[string]RunRequest{
		"seed":     {Attack: "jamming", Seed: 2},
		"duration": {Attack: "jamming", DurationSec: 30},
		"vehicles": {Attack: "jamming", Vehicles: 12},
		"roster":   {Attack: "jamming", Vehicles: message.MaxRosterMembers},
		"attack":   {Attack: "dos"},
		"start":    {Attack: "jamming", AttackStartSec: 20},
		"power":    {Attack: "jamming", JammerPowerDBm: 20},
		"defense":  {Attack: "jamming", Defense: []string{"cv2x"}},
		"spans":    {Attack: "jamming", Spans: true},
		"events":   {Attack: "jamming", Events: true},
		"world":    {Attack: "jamming", World: &WorldRequest{}},
		"joiner":   {Attack: "jamming", WithJoiner: true},
		"one-shot": {Attack: "fake-maneuver", AttackOneShot: true},
		"variant":  {Attack: "fake-maneuver", FakeManeuverVariant: "dissolve"},
		"rejoin":   {Attack: "jamming", AutoRejoin: true},
		"baseline": {},
	}
	d0 := digestOf(t, base)
	seen := map[string]string{"base": d0}
	for name, v := range variants {
		d := digestOf(t, v)
		for prev, pd := range seen {
			if d == pd {
				t.Errorf("variant %q collides with %q: %s", name, prev, d)
			}
		}
		seen[name] = d
	}
}

// TestDigestRequiresNormalization: digesting a raw request is a
// programming error, not a silent wrong key.
func TestDigestRequiresNormalization(t *testing.T) {
	r := RunRequest{Seed: 1}
	if _, err := Digest(&r); err == nil {
		t.Fatal("Digest accepted an unnormalized request")
	}
}

// TestNormalizeRejections: requests that would silently run a different
// experiment than asked must be rejected, not normalized.
func TestNormalizeRejections(t *testing.T) {
	bad := map[string]RunRequest{
		"unknown attack":          {Attack: "quantum"},
		"unknown defense":         {Defense: []string{"forcefield"}},
		"unknown schema":          {Schema: 99},
		"negative duration":       {DurationSec: -1},
		"duration under 1 ns":     {DurationSec: 1e-12},
		"duration past the clock": {DurationSec: 1e10},
		"attack past the clock":   {AttackStartSec: 1e300},
		"joiner past the clock":   {WithJoiner: true, JoinerAtSec: 1e10},
		"world epoch under 1 ns":  {World: &WorldRequest{EpochMS: 1e-9}},
		"one vehicle":             {Vehicles: 1},
		"roster over the wire":    {Vehicles: message.MaxRosterMembers + 1},
		"joiner time sans joiner": {JoinerAtSec: 5},
		"power sans jamming":      {Attack: "dos", JammerPowerDBm: 30},
		"ghosts sans sybil":       {Attack: "jamming", SybilGhosts: 3},
		"variant sans fake":       {Attack: "jamming", FakeManeuverVariant: "split"},
		"unknown variant":         {Attack: "fake-maneuver", FakeManeuverVariant: "warp"},
		"world unknown attack":    {Attack: "dos", World: &WorldRequest{}},
		"world with vehicles":     {Vehicles: 8, World: &WorldRequest{}},
		"world with defense":      {Defense: []string{"pki"}, World: &WorldRequest{}},
		"world with joiner":       {WithJoiner: true, World: &WorldRequest{}},
		"world epoch > duration":  {DurationSec: 0.05, World: &WorldRequest{EpochMS: 100}},
		"world too many members":  {World: &WorldRequest{VehiclesPerPlatoon: 5000}},
	}
	for name, r := range bad {
		if err := r.Normalize(); err == nil {
			t.Errorf("%s: normalized without error to %+v", name, r)
		}
	}
}

// TestValidDigest pins the path-parameter guard.
func TestValidDigest(t *testing.T) {
	ok := digestOf(t, RunRequest{})
	if !ValidDigest(ok) {
		t.Fatalf("real digest rejected: %s", ok)
	}
	for _, bad := range []string{"", "abc", ok[:63], ok + "0", "../../../../etc/passwd",
		"ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789"[:64]} {
		if ValidDigest(bad) {
			t.Errorf("ValidDigest(%q) = true", bad)
		}
	}
}
