// Package scenario assembles full experiments: a highway platoon over a
// realistic fading channel, an attack from the canonical suite injected
// mid-run, a configurable stack of defenses, and a metrics collector
// that reduces the run to the observables the paper's tables talk
// about. Every experiment is Run(Options) → Result, deterministic in
// (Options, Seed).
package scenario

import (
	"io"

	"platoonsec/internal/obs"
	"platoonsec/internal/phy"
	"platoonsec/internal/platoon"
	"platoonsec/internal/sim"
	worldpkg "platoonsec/internal/world"
)

// DefensePack selects which Table III mechanism families are active.
type DefensePack struct {
	// PKI signs envelopes and verifies with a replay guard (§VI-A1).
	PKI bool
	// Encrypt seals envelopes under the platoon session key (§VI-A1,
	// confidentiality arm).
	Encrypt bool
	// RateLimit installs the DoS token buckets.
	RateLimit bool
	// VPDADA installs the plausibility detector on every vehicle
	// (§VI-A3).
	VPDADA bool
	// Trust installs the REPLACE-style trust manager, fed by VPDADA
	// detections, reporting blacklists to the TA (§VI-A2/§VI-A3).
	Trust bool
	// Hybrid runs the SP-VLC optical chain and dual-channel maneuver
	// confirmation (§VI-A4).
	Hybrid bool
	// CV2X runs the alternative second channel §VI-A4 also names: a
	// 3GPP C-V2X sidelink carrying leader state in a different band.
	CV2X bool
	// Fusion runs GPS/odometry sensor fusion on every member and a
	// redundant ranging sensor (§VI-A5).
	Fusion bool
	// GapTimeout bounds maneuver gaps (protocol hardening against fake
	// entrance).
	GapTimeout bool
	// JoinGate requires join requesters to have been observed beaconing
	// nearby before the leader considers them (§VI-A3 DoS defense).
	JoinGate bool
	// Convoy requires joiners to prove physical road presence via
	// suspension-correlation proofs (Han et al. [4], the paper
	// conclusion's "witness systems and sensors"). Prevents Sybil
	// ghost admission without cryptography.
	Convoy bool
	// HardenedOnboard models §VI-A5 firmware hardening: the malware
	// infection vector (multimedia file / OBD / compromised ECU) is
	// blocked, so the insider-FDI payload never activates and its CAN
	// injections die at the firewall.
	HardenedOnboard bool
}

// Any reports whether any defense is enabled.
func (d DefensePack) Any() bool {
	return d.PKI || d.Encrypt || d.RateLimit || d.VPDADA || d.Trust || d.Hybrid ||
		d.CV2X || d.Fusion || d.GapTimeout || d.JoinGate || d.Convoy || d.HardenedOnboard
}

// Options configures one experiment.
type Options struct {
	// Seed drives every random stream.
	Seed int64
	// Duration is the simulated time span.
	Duration sim.Time
	// Vehicles is the platoon size (leader + members): at least 2, at
	// most 900, less with a joiner or an attack that claims IDs (Validate).
	Vehicles int
	// Cfg is the platoon protocol configuration.
	Cfg platoon.Config
	// ChannelEnv overrides the radio environment (nil = realistic
	// default with fading and shadowing).
	ChannelEnv *phy.Environment
	// SpeedProfile scripts the leader (nil = default profile with a
	// speed step at one-third of the run, which gives replay attackers
	// material and exercises string stability).
	SpeedProfile func(now sim.Time) float64
	// Defense selects active mechanisms.
	Defense DefensePack
	// AttackKey selects the attack (taxonomy key; "" = baseline run).
	AttackKey string
	// AttackStart is when the attack arms.
	AttackStart sim.Time
	// WithJoiner adds a genuine certified joiner that requests
	// admission at JoinerAt (measures availability).
	WithJoiner bool
	// JoinerAt is the joiner's first request time.
	JoinerAt sim.Time
	// JammerPowerDBm overrides the jamming attack power (0 = default
	// 40 dBm).
	JammerPowerDBm float64
	// SybilGhosts overrides the ghost count (0 = default 5).
	SybilGhosts int
	// TraceCSV, when non-nil, receives a per-100 ms CSV time series
	// (time, leader speed, worst/mean spacing error, disbanded
	// fraction) for offline plotting.
	TraceCSV io.Writer
	// AutoRejoin enables the §V-A3 reconnection behaviour: members
	// thrown out of the platoon request readmission. Pair with
	// AttackOneShot to measure reform time.
	AutoRejoin bool
	// AttackOneShot limits injection attacks to a single forged
	// message (fake-maneuver only), so recovery is observable.
	AttackOneShot bool
	// FakeManeuverVariant selects the §V-A3 forgery for the
	// fake-maneuver attack: "split" (default), "entrance", "leave",
	// "dissolve".
	FakeManeuverVariant string
	// EventsJSONL, when non-nil, receives newline-delimited JSON
	// events: defense detections, role changes, blacklistings and
	// revocations, for offline timeline analysis.
	EventsJSONL io.Writer
	// Observe attaches a flight recorder to every layer (kernel, phy,
	// mac, attack, defense, scenario) and lands its metric snapshot in
	// Result.Obs. Recording draws no randomness and schedules no
	// events, so enabling it does not change any other observable.
	Observe bool
	// ObsCapacity overrides the flight-recorder ring size
	// (0 = obs.DefaultCapacity).
	ObsCapacity int
	// ObsMinLevel is the severity admitted on every layer; the zero
	// value is obs.LevelInfo.
	ObsMinLevel obs.Level
	// ChromeTrace, when non-nil, receives the run's retained records as
	// a Chrome trace-event / Perfetto JSON document. Implies Observe.
	// With Spans also set, the document gains flow events linking each
	// causal chain across layer rows.
	ChromeTrace io.Writer
	// Timeline enables the per-epoch metrics timeline on world runs
	// (see worldpkg.Options.Timeline); it has no effect on
	// single-platoon runs. Like Observe and Spans, the recorder
	// cannot change any other observable. TimelineCapacity bounds the
	// sample ring (0 = timeline.DefaultCapacity).
	Timeline         bool
	TimelineCapacity int
	// Spans enables causal provenance tracing: every frame's journey
	// (inject/send → phy fade → mac delivery or loss → controller,
	// detector and roster effects) lands in a bounded span store, and
	// Result gains Spans accounting plus a Forensics attribution
	// report. Like Observe, tracing draws no randomness and schedules
	// no events, so it cannot change any other observable.
	Spans bool
	// SpanCapacity overrides the span store bound
	// (0 = span.DefaultCapacity).
	SpanCapacity int
	// World, when non-nil, switches the run to the sharded
	// multi-platoon highway world (RunWorld): a ring of platoons with
	// a full lifecycle layer instead of one platoon under one attack.
	// Seed, Duration, AttackKey, AttackStart, Spans, SpanCapacity,
	// EventsJSONL, Timeline and TimelineCapacity
	// are inherited from this Options unless the World
	// options set them explicitly; single-platoon knobs (defenses,
	// attack variants, Observe) do not apply at world scale.
	World *worldpkg.Options
}

// DefaultOptions returns the standard E2 experiment shell: an 8-vehicle
// platoon, 60 simulated seconds, attack armed at t=10 s.
func DefaultOptions() Options {
	return Options{
		Seed:        1,
		Duration:    60 * sim.Second,
		Vehicles:    8,
		Cfg:         platoon.DefaultConfig(),
		AttackStart: 10 * sim.Second,
		WithJoiner:  false,
		JoinerAt:    15 * sim.Second,
	}
}

// defaultProfile steps the leader's speed at one-third of the run.
func defaultProfile(duration sim.Time, cruise float64) func(sim.Time) float64 {
	step := duration / 3
	return func(now sim.Time) float64 {
		if now > step {
			return cruise + 3
		}
		return cruise
	}
}
