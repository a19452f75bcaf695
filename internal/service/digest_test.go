package service

import (
	"encoding/json"
	"strings"
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
		"id plan":  {Attack: "jamming", Vehicles: 900, DurationSec: 0.05},
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
		"unknown attack":           {Attack: "quantum"},
		"unknown defense":          {Defense: []string{"forcefield"}},
		"unknown schema":           {Schema: 99},
		"negative duration":        {DurationSec: -1},
		"duration under 1 ns":      {DurationSec: 1e-12},
		"duration past the clock":  {DurationSec: 1e10},
		"attack past the clock":    {AttackStartSec: 1e300},
		"joiner past the clock":    {WithJoiner: true, JoinerAtSec: 1e10},
		"world epoch under 1 ns":   {World: &WorldRequest{EpochMS: 1e-9}},
		"one vehicle":              {Vehicles: 1},
		"roster over the wire":     {Vehicles: message.MaxRosterMembers + 1},
		"joiner time sans joiner":  {JoinerAtSec: 5},
		"power sans jamming":       {Attack: "dos", JammerPowerDBm: 30},
		"ghosts sans sybil":        {Attack: "jamming", SybilGhosts: 3},
		"variant sans fake":        {Attack: "jamming", FakeManeuverVariant: "split"},
		"unknown variant":          {Attack: "fake-maneuver", FakeManeuverVariant: "warp"},
		"world unknown attack":     {Attack: "dos", World: &WorldRequest{}},
		"world with vehicles":      {Vehicles: 8, World: &WorldRequest{}},
		"world with defense":       {Defense: []string{"pki"}, World: &WorldRequest{}},
		"world with joiner":        {WithJoiner: true, World: &WorldRequest{}},
		"world epoch > duration":   {DurationSec: 0.05, World: &WorldRequest{EpochMS: 100}},
		"world too many members":   {World: &WorldRequest{VehiclesPerPlatoon: 5000}},
		"vehicles past the plan":   {Vehicles: message.MaxRosterMembers, DurationSec: 0.001},
		"vehicles at the observer": {Vehicles: 901, DurationSec: 0.001},
		"vehicles at the attacker": {Vehicles: 900, Attack: "replay", DurationSec: 0.001},
		"vehicles at the joiner":   {Vehicles: 40, WithJoiner: true, DurationSec: 10},
		"vehicles at the ghosts":   {Vehicles: 600, Attack: "sybil", DurationSec: 0.1},
		"vehicles at the flood":    {Vehicles: 600, Attack: "dos", DurationSec: 0.1},
		"ghosts at the RSU":        {Attack: "sybil", SybilGhosts: 600},
		"negative ghosts":          {Attack: "sybil", SybilGhosts: -1},
		"budget duration at clock": {DurationSec: 9e9},
		"world junctions":          {World: &WorldRequest{Junctions: 1000000}},
		"world negative junctions": {World: &WorldRequest{Junctions: -1}},
		"world negative agents":    {World: &WorldRequest{FreeAgents: -1}},
		"world no platoons":        {World: &WorldRequest{Platoons: -1}},
		"world epoch past clock":   {DurationSec: 1, World: &WorldRequest{EpochMS: 1e300}},
		"budget duration":          {Vehicles: 2, DurationSec: maxRunSec + 1},
		"budget vehicle²-seconds":  {Vehicles: 100, DurationSec: maxVehicle2Seconds/1e4 + 1},
		"budget ghost-seconds":     {Vehicles: 11, Attack: "sybil", SybilGhosts: 500, DurationSec: maxRunSec},
		"budget world units":       {DurationSec: 0.1, World: &WorldRequest{Platoons: maxWorldUnits}},
		"budget world ghosts":      {Attack: "sybil", SybilGhosts: maxWorldGhosts + 1, World: &WorldRequest{}},
		"budget world unit-epochs": {DurationSec: maxWorldUnitEpochs/5000 + 1, World: &WorldRequest{Platoons: 490}},
	}
	for name, r := range bad {
		if err := r.Normalize(); err == nil {
			t.Errorf("%s: normalized without error to %+v", name, r)
		} else if budget := strings.Contains(err.Error(), "work budget"); budget != strings.HasPrefix(name, "budget") {
			t.Errorf("%s: rejected by the wrong rule: %v", name, err)
		} else if budget && !strings.Contains(err.Error(), "limit") {
			t.Errorf("%s: %v does not state the limit", name, err)
		}
	}
}

// TestDigestsPinned holds the canonical bytes and digests of the
// default request, perfbench's platoond request shape for every attack,
// a default DoS request and a default world. They are cache keys and
// spill file names, so they must not move while the schema stays.
func TestDigestsPinned(t *testing.T) {
	for _, c := range []struct{ body, canon, digest string }{
		{`{}`,
			`{"schema":1,"seed":1,"duration_sec":60,"vehicles":8,"attack_start_sec":10}`,
			"b9d6237804f7991dea3333125d18e679d34497731ed43041d1c5240539d0f078"},
		{`{"attack":"dos"}`,
			`{"schema":1,"seed":1,"duration_sec":60,"vehicles":8,"attack":"dos","attack_start_sec":10}`,
			"d3041bf8ba7fc1018fa1dc2e15784b8173769f901b87920701fb06f71eaedd26"},
		{`{"world":{}}`,
			`{"schema":1,"seed":1,"duration_sec":60,"attack_start_sec":10,"world":{"platoons":40,"vehicles_per_platoon":8,"free_agents":10,"epoch_ms":100}}`,
			"ceb6d14b5d185cb09a3a0df1b4aa5b1d59b04f5e9e341e9dccd6d1835e217de3"},
		{`{"seed":1,"duration_sec":10,"vehicles":8,"attack_start_sec":3}`,
			`{"schema":1,"seed":1,"duration_sec":10,"vehicles":8,"attack_start_sec":3}`,
			"bd652ef07ba702178f57c2b84d28bff30d9564c359be48adc4ce73ec45bcbf23"},
		{`{"seed":1,"duration_sec":10,"vehicles":8,"attack":"replay","attack_start_sec":3}`,
			`{"schema":1,"seed":1,"duration_sec":10,"vehicles":8,"attack":"replay","attack_start_sec":3}`,
			"064e48176268926c980358c7e3c3ff23ac9e2fdd7fb8b62b3f751e89d395b6e1"},
		{`{"seed":1,"duration_sec":10,"vehicles":8,"attack":"jamming","attack_start_sec":3}`,
			`{"schema":1,"seed":1,"duration_sec":10,"vehicles":8,"attack":"jamming","attack_start_sec":3,"jammer_power_dbm":40}`,
			"ac0445265681c76c2b593460c275925600f0ad9b4ab1fb13949e0f981c5e14c8"},
		{`{"seed":1,"duration_sec":10,"vehicles":8,"attack":"sybil","attack_start_sec":3}`,
			`{"schema":1,"seed":1,"duration_sec":10,"vehicles":8,"attack":"sybil","attack_start_sec":3,"sybil_ghosts":5}`,
			"ae9e3daa219b0d025c176956d81959a521a3dc2dbac71d9f2deb9669d7e0b5e7"},
		{`{"seed":1,"duration_sec":10,"vehicles":8,"attack":"fake-maneuver","attack_start_sec":3}`,
			`{"schema":1,"seed":1,"duration_sec":10,"vehicles":8,"attack":"fake-maneuver","attack_start_sec":3,"fake_maneuver_variant":"split"}`,
			"b5c03bfe996350a28645302d183e327f896522c713b86e70b40af842b86a66c1"},
		{`{"seed":1,"duration_sec":10,"vehicles":8,"attack":"eavesdropping","attack_start_sec":3}`,
			`{"schema":1,"seed":1,"duration_sec":10,"vehicles":8,"attack":"eavesdropping","attack_start_sec":3}`,
			"00d663a4283c0b40ddcc716e8c7b6d9d28d2de77c2cb8cada4fba9e81a3c8994"},
		{`{"seed":1,"duration_sec":10,"vehicles":8,"attack":"dos","attack_start_sec":3}`,
			`{"schema":1,"seed":1,"duration_sec":10,"vehicles":8,"attack":"dos","attack_start_sec":3}`,
			"ad052b5fba66a58b560b416f385057873552eda198afd3311f0958536a4040e1"},
		{`{"seed":1,"duration_sec":10,"vehicles":8,"attack":"impersonation","attack_start_sec":3}`,
			`{"schema":1,"seed":1,"duration_sec":10,"vehicles":8,"attack":"impersonation","attack_start_sec":3}`,
			"d908497a23f3ed6fe41ad7578161b2c3b2347482c524de806f1d8984db0e2b1b"},
		{`{"seed":1,"duration_sec":10,"vehicles":8,"attack":"sensor-spoofing","attack_start_sec":3}`,
			`{"schema":1,"seed":1,"duration_sec":10,"vehicles":8,"attack":"sensor-spoofing","attack_start_sec":3}`,
			"018bfaa735ac21c758147fbd7e7c860e6e25be090afea6cee4306811cbb884cc"},
		{`{"seed":1,"duration_sec":10,"vehicles":8,"attack":"malware","attack_start_sec":3}`,
			`{"schema":1,"seed":1,"duration_sec":10,"vehicles":8,"attack":"malware","attack_start_sec":3}`,
			"d05375dba096812d2d4ee21e547ac09581190683833e78d48aefdccde9a44cc3"},
	} {
		var r RunRequest
		if err := json.Unmarshal([]byte(c.body), &r); err != nil {
			t.Fatal(err)
		}
		if err := r.Normalize(); err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		canon, err := CanonicalBytes(&r)
		if err != nil {
			t.Fatal(err)
		}
		if string(canon) != c.canon {
			t.Errorf("%s: canonical bytes %s, want %s", c.body, canon, c.canon)
		}
		if d := digestOf(t, r); d != c.digest {
			t.Errorf("%s: digest %s, want %s", c.body, d, c.digest)
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
