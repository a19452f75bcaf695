package service

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"sort"

	"platoonsec/internal/scenario"
	"platoonsec/internal/sim"
	worldpkg "platoonsec/internal/world"
)

// RunRequest is the POST /v1/runs body: the serializable, deterministic
// subset of scenario.Options. A zero value for any knob selects the
// same default the CLI tools use, and Normalize rewrites the request
// into its canonical form — defaults filled, defense list sorted and
// deduplicated, knobs that do not apply to the selected attack zeroed —
// so two requests that mean the same experiment always digest
// identically.
type RunRequest struct {
	// Schema is the request schema version; Normalize stamps
	// SchemaVersion, and a non-zero mismatched value is rejected so a
	// digest can never silently span schema generations.
	Schema int `json:"schema,omitempty"`
	// Seed drives every random stream (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// DurationSec is the simulated span in seconds (0 = 60).
	DurationSec float64 `json:"duration_sec,omitempty"`
	// Vehicles is the platoon size, leader included (0 = 8; min 2; max
	// 900, less with a joiner or an attack that claims node IDs).
	Vehicles int `json:"vehicles,omitempty"`
	// Attack is the taxonomy key ("" = baseline run).
	Attack string `json:"attack,omitempty"`
	// AttackStartSec is when the attack arms (0 = 10).
	AttackStartSec float64 `json:"attack_start_sec,omitempty"`
	// Defense lists active mechanism flags by canonical name (see
	// DefenseNames); order and duplicates are irrelevant.
	Defense []string `json:"defense,omitempty"`
	// WithJoiner adds a certified joiner requesting admission at
	// JoinerAtSec (0 = 15, only meaningful with WithJoiner).
	WithJoiner  bool    `json:"with_joiner,omitempty"`
	JoinerAtSec float64 `json:"joiner_at_sec,omitempty"`
	// JammerPowerDBm overrides the jamming power (0 = 40; jamming
	// attacks only).
	JammerPowerDBm float64 `json:"jammer_power_dbm,omitempty"`
	// SybilGhosts overrides the ghost count (0 = 5; sybil only).
	SybilGhosts int `json:"sybil_ghosts,omitempty"`
	// AutoRejoin enables §V-A3 readmission of ejected members.
	AutoRejoin bool `json:"auto_rejoin,omitempty"`
	// AttackOneShot limits fake-maneuver to a single forgery.
	AttackOneShot bool `json:"attack_one_shot,omitempty"`
	// FakeManeuverVariant selects the §V-A3 forgery ("" = "split";
	// fake-maneuver only): split, entrance, leave, dissolve.
	FakeManeuverVariant string `json:"fake_maneuver_variant,omitempty"`
	// Spans enables causal provenance tracing; the result gains
	// Spans/Forensics fields, so it is part of the digest.
	Spans bool `json:"spans,omitempty"`
	// Events captures the run's JSONL event stream as a cached
	// artifact served from GET /v1/runs/{digest}/events. Part of the
	// digest: it selects the artifact set, not the simulation.
	Events bool `json:"events,omitempty"`
	// World switches the run to the sharded multi-platoon highway
	// world. Single-platoon knobs (vehicles, defenses, joiner,
	// variants) must be unset; Seed, DurationSec, Attack and
	// AttackStartSec apply to the world.
	World *WorldRequest `json:"world,omitempty"`
}

// WorldRequest sizes a world run. Shard and worker counts are
// deliberately absent: they are deployment execution knobs
// (Config.WorldShards/WorldWorkers), not scenario identity.
type WorldRequest struct {
	// Platoons and VehiclesPerPlatoon size the initial population
	// (0 = 40 and 8); FreeAgents adds admission-seeking loners
	// (0 = 10).
	Platoons           int `json:"platoons,omitempty"`
	VehiclesPerPlatoon int `json:"vehicles_per_platoon,omitempty"`
	FreeAgents         int `json:"free_agents,omitempty"`
	// Junctions is the interchange count (0 = auto from Platoons).
	Junctions int `json:"junctions,omitempty"`
	// EpochMS is the barrier period in milliseconds (0 = 100).
	EpochMS float64 `json:"epoch_ms,omitempty"`
}

// DefenseNames returns the canonical defense flag names in canonical
// (sorted) order, matching the DefensePack labels used everywhere else
// in the repo.
func DefenseNames() []string {
	names := make([]string, 0, len(defenseFlags))
	for _, f := range defenseFlags {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}

// defenseFlags maps canonical wire names onto DefensePack fields.
var defenseFlags = []struct {
	name string
	set  func(*scenario.DefensePack)
}{
	{"pki", func(d *scenario.DefensePack) { d.PKI = true }},
	{"encrypt", func(d *scenario.DefensePack) { d.Encrypt = true }},
	{"ratelimit", func(d *scenario.DefensePack) { d.RateLimit = true }},
	{"vpd-ada", func(d *scenario.DefensePack) { d.VPDADA = true }},
	{"trust", func(d *scenario.DefensePack) { d.Trust = true }},
	{"sp-vlc", func(d *scenario.DefensePack) { d.Hybrid = true }},
	{"cv2x", func(d *scenario.DefensePack) { d.CV2X = true }},
	{"fusion", func(d *scenario.DefensePack) { d.Fusion = true }},
	{"gap-timeout", func(d *scenario.DefensePack) { d.GapTimeout = true }},
	{"join-gate", func(d *scenario.DefensePack) { d.JoinGate = true }},
	{"convoy", func(d *scenario.DefensePack) { d.Convoy = true }},
	{"hardened", func(d *scenario.DefensePack) { d.HardenedOnboard = true }},
}

// maxSimSec bounds every time knob in seconds: the simulator's clock
// counts int64 nanoseconds, which overflow at about 9.22e9 s. A time
// that does not fit, or a duration or epoch that rounds to 0 ns, would
// fail the run after the request was accepted or run another
// experiment than asked, so Normalize rejects it.
const maxSimSec = 9e9

// The work budget is platoond's limit on the size of one run (library
// and CLI callers are unbounded): each cap admits runs of at most about
// 10 s of wall time on a 2-CPU host with every defense on (DESIGN.md
// §11). A platoon costs a fixed amount per simulated second plus
// receptions growing with vehicles², and sybil ghosts add frames at
// every vehicle until they saturate the channel; a world costs per unit
// and epoch plus per pair of units in radio range, and ghosts transmit
// the most.
const (
	maxRunSec          = 400     // duration_sec
	maxVehicle2Seconds = 50000   // vehicles² × duration_sec
	maxGhostSeconds    = 20000   // sybil_ghosts × duration_sec
	maxWorldUnits      = 2000    // platoons + free_agents + sybil_ghosts
	maxWorldGhosts     = 200     // sybil_ghosts
	maxWorldUnitEpochs = 3000000 // units × epochs
)

// Normalize validates req and rewrites it into canonical form. After a
// successful Normalize, two requests describe the same experiment if
// and only if their digests are equal: defaults are made explicit,
// the defense list is sorted and deduplicated, and knobs that cannot
// affect the selected experiment are rejected so they cannot fork the
// cache key. The run's bounds are its own Validate (see validate).
func (r *RunRequest) Normalize() error {
	if r.Schema != 0 && r.Schema != SchemaVersion {
		return fmt.Errorf("unsupported schema %d (this server speaks schema %d)", r.Schema, SchemaVersion)
	}
	r.Schema = SchemaVersion
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.DurationSec == 0 {
		r.DurationSec = 60
	}
	if r.DurationSec <= 0 || r.DurationSec > maxSimSec || sim.FromSeconds(r.DurationSec) == 0 {
		return fmt.Errorf("duration_sec must be between 1 ns and %g s, got %g", maxSimSec, r.DurationSec)
	}
	if r.AttackStartSec == 0 {
		r.AttackStartSec = 10
	}
	if r.AttackStartSec < 0 || r.AttackStartSec > maxSimSec {
		return fmt.Errorf("attack_start_sec must be in [0, %g], got %g", maxSimSec, r.AttackStartSec)
	}

	if r.World != nil {
		return r.normalizeWorld()
	}

	if r.Vehicles == 0 {
		r.Vehicles = 8
	}
	_, canon, err := defensePack(r.Defense)
	if err != nil {
		return err
	}
	r.Defense = canon

	if r.WithJoiner {
		if r.JoinerAtSec == 0 {
			r.JoinerAtSec = 15
		}
		if r.JoinerAtSec < 0 || r.JoinerAtSec > maxSimSec {
			return fmt.Errorf("joiner_at_sec must be in [0, %g], got %g", maxSimSec, r.JoinerAtSec)
		}
	} else if r.JoinerAtSec != 0 {
		return fmt.Errorf("joiner_at_sec needs with_joiner")
	}

	if err := r.normalizeAttackKnobs(r.Attack); err != nil {
		return err
	}
	return r.validate()
}

// normalizeAttackKnobs canonicalizes the per-attack overrides: fill the
// default for the attack they modify, reject them elsewhere (silently
// zeroing a knob the caller set would serve a different experiment than
// requested).
func (r *RunRequest) normalizeAttackKnobs(attackKey string) error {
	switch {
	case attackKey == "jamming":
		if r.JammerPowerDBm == 0 {
			r.JammerPowerDBm = 40
		}
	case r.JammerPowerDBm != 0:
		return fmt.Errorf("jammer_power_dbm applies only to the jamming attack, not %q", attackKey)
	}
	switch {
	case attackKey == "sybil":
		if r.SybilGhosts == 0 {
			r.SybilGhosts = 5
		}
	case r.SybilGhosts != 0:
		return fmt.Errorf("sybil_ghosts applies only to the sybil attack, not %q", attackKey)
	}
	switch {
	case attackKey == "fake-maneuver" && r.World == nil:
		if r.FakeManeuverVariant == "" {
			r.FakeManeuverVariant = "split"
		}
	case r.FakeManeuverVariant != "":
		return fmt.Errorf("fake_maneuver_variant applies only to the fake-maneuver attack, not %q", attackKey)
	}
	return nil
}

// normalizeWorld canonicalizes a world-scale request.
func (r *RunRequest) normalizeWorld() error {
	if len(r.Defense) != 0 || r.WithJoiner || r.JoinerAtSec != 0 || r.AutoRejoin ||
		r.AttackOneShot || r.FakeManeuverVariant != "" || r.Vehicles != 0 {
		return fmt.Errorf("vehicles, defense and joiner knobs are single-platoon options; the world sizes itself via the world object")
	}
	if err := r.normalizeAttackKnobs(r.Attack); err != nil {
		return err
	}
	w := r.World
	if w.Platoons == 0 {
		w.Platoons = 40
	}
	if w.VehiclesPerPlatoon == 0 {
		w.VehiclesPerPlatoon = 8
	}
	if w.FreeAgents == 0 {
		w.FreeAgents = 10
	}
	if w.EpochMS == 0 {
		w.EpochMS = 100
	}
	if w.EpochMS <= 0 || w.EpochMS > maxSimSec*1000 || sim.FromSeconds(w.EpochMS/1000) == 0 {
		return fmt.Errorf("world.epoch_ms must be between 1 ns and %g ms, got %g", maxSimSec*1000, w.EpochMS)
	}
	return r.validate()
}

// validate bounds a canonical request by its run's Validate
// (scenario.Options.Validate or world.Options.Validate), then by the
// work budget, whose errors name the cap. Products are taken in
// float64, so huge knobs cannot overflow past a cap.
func (r *RunRequest) validate() error {
	o, err := r.Options(1, 1, nil)
	if err == nil {
		err = o.Validate()
	}
	if err != nil {
		return err
	}
	over := func(what string, got, limit float64) error {
		if got > limit {
			return fmt.Errorf("run exceeds the work budget: %s is %g, limit %g", what, got, limit)
		}
		return nil
	}
	if w := r.World; w != nil {
		units := float64(w.Platoons) + float64(w.FreeAgents) + float64(r.SybilGhosts)
		epochs := math.Ceil(r.DurationSec * 1000 / w.EpochMS)
		return cmp.Or(
			over("world platoons + free_agents + sybil_ghosts", units, maxWorldUnits),
			over("world sybil_ghosts", float64(r.SybilGhosts), maxWorldGhosts),
			over("world units × epochs", units*epochs, maxWorldUnitEpochs))
	}
	v := float64(r.Vehicles)
	return cmp.Or(
		over("duration_sec", r.DurationSec, maxRunSec),
		over("vehicles² × duration_sec", v*v*r.DurationSec, maxVehicle2Seconds),
		over("sybil_ghosts × duration_sec", float64(r.SybilGhosts)*r.DurationSec, maxGhostSeconds))
}

// defensePack resolves the wire names into a DefensePack and the
// canonical (sorted, deduplicated) name list.
func defensePack(names []string) (scenario.DefensePack, []string, error) {
	var pack scenario.DefensePack
	if len(names) == 0 {
		return pack, nil, nil
	}
	seen := make(map[string]bool, len(names))
	canon := make([]string, 0, len(names))
	for _, n := range names {
		found := false
		for _, f := range defenseFlags {
			if f.name == n {
				f.set(&pack)
				found = true
				break
			}
		}
		if !found {
			return pack, nil, fmt.Errorf("unknown defense %q (valid: %v)", n, DefenseNames())
		}
		if !seen[n] {
			seen[n] = true
			canon = append(canon, n)
		}
	}
	sort.Strings(canon)
	return pack, canon, nil
}

// RunKind names the artifact kind this request produces.
func (r *RunRequest) RunKind() string {
	if r.World != nil {
		return "world"
	}
	return "run"
}

// Options converts a normalized request into runnable scenario
// options. worldShards and worldWorkers are the deployment's execution
// knobs for world runs; events, when non-nil, receives the JSONL event
// stream for requests that asked for it.
func (r *RunRequest) Options(worldShards, worldWorkers int, events *bytes.Buffer) (scenario.Options, error) {
	o := scenario.DefaultOptions()
	o.Seed = r.Seed
	o.Duration = sim.FromSeconds(r.DurationSec)
	o.AttackKey = r.Attack
	o.AttackStart = sim.FromSeconds(r.AttackStartSec)
	o.Spans = r.Spans
	if r.Events && events != nil {
		o.EventsJSONL = events
	}
	if r.World != nil {
		o.World = &worldpkg.Options{
			Seed:               r.Seed,
			Duration:           o.Duration,
			Epoch:              sim.FromSeconds(r.World.EpochMS / 1000),
			Shards:             worldShards,
			Workers:            worldWorkers,
			Platoons:           r.World.Platoons,
			VehiclesPerPlatoon: r.World.VehiclesPerPlatoon,
			FreeAgents:         r.World.FreeAgents,
			Junctions:          r.World.Junctions,
			AttackKey:          r.Attack,
			AttackStart:        o.AttackStart,
			JammerPowerDBm:     r.JammerPowerDBm,
			SybilGhosts:        r.SybilGhosts,
			Spans:              r.Spans,
		}
		return o, nil
	}
	o.Vehicles = r.Vehicles
	pack, _, err := defensePack(r.Defense)
	if err != nil {
		return o, err
	}
	o.Defense = pack
	o.WithJoiner = r.WithJoiner
	if r.WithJoiner {
		o.JoinerAt = sim.FromSeconds(r.JoinerAtSec)
	}
	o.JammerPowerDBm = r.JammerPowerDBm
	o.SybilGhosts = r.SybilGhosts
	o.AutoRejoin = r.AutoRejoin
	o.AttackOneShot = r.AttackOneShot
	o.FakeManeuverVariant = r.FakeManeuverVariant
	return o, nil
}
