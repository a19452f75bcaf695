// Package lab runs the paper-reproduction experiments: it sweeps the
// attack suite against the defense mechanisms and reduces each run to
// the verdicts the paper's tables state qualitatively. Every driver
// (cmd/docsgen, cmd/attacklab, cmd/bench and the root benchmarks)
// declares its experiments as one Plan and measures it with Measure.
package lab

import (
	"fmt"

	"platoonsec/internal/risk"
	"platoonsec/internal/scenario"
	"platoonsec/internal/sim"
	"platoonsec/internal/taxonomy"
)

// Config scales the experiments.
type Config struct {
	// Seed drives all runs.
	Seed int64
	// Duration is the per-run simulated time.
	Duration sim.Time
	// Vehicles is the platoon size.
	Vehicles int
	// Observe attaches the flight recorder to every run, landing an
	// observability snapshot in each Result.Obs. Off by default: lab
	// verdicts never depend on it.
	Observe bool
	// Spans enables causal provenance tracing on every run, landing
	// span accounting in Result.Spans and an attack→effect attribution
	// report in Result.Forensics. Off by default, same contract as
	// Observe: verdicts never depend on it and it perturbs nothing.
	Spans bool
}

// DefaultConfig matches the E2 shell from DESIGN.md: 8 vehicles, 60 s.
func DefaultConfig() Config {
	return Config{Seed: 1, Duration: 60 * sim.Second, Vehicles: 8}
}

// OptionsFor builds the scenario options for one (attack, defense)
// cell, including the attack-specific quirks (joiner timing, roster
// headroom). Plan runs are built here; harnesses that batch lab cells
// themselves, like perfbench, call it directly.
func (c Config) OptionsFor(attackKey string, pack scenario.DefensePack) scenario.Options {
	o := scenario.DefaultOptions()
	o.Seed = c.Seed
	o.Duration = c.Duration
	o.Vehicles = c.Vehicles
	o.AttackKey = attackKey
	o.Defense = pack
	o.Observe = c.Observe
	o.Spans = c.Spans
	switch attackKey {
	case "dos":
		// Availability-of-joining experiments need a genuine joiner.
		o.WithJoiner = true
		o.JoinerAt = o.AttackStart + 10*sim.Second
	case "sybil":
		o.WithJoiner = true
		// Ghosts complete one join every 2 s; give all five time to
		// exhaust the roster before the genuine joiner shows up.
		o.JoinerAt = o.AttackStart + 15*sim.Second
		o.Cfg.MaxMembers = (c.Vehicles - 1) + 5
	}
	return o
}

// AttackOutcome is one measured Table II row.
type AttackOutcome struct {
	Attack   taxonomy.AttackClass
	Baseline *scenario.Result
	Attacked *scenario.Result
	// Summary is the human-readable measured-impact cell.
	Summary string
	// Evidence feeds the risk matrix.
	Evidence *risk.Evidence
	// PropertyHeld reports whether the measured impact lands on the
	// property the paper says the attack compromises.
	PropertyHeld bool
}

// evidenceFrom reduces a run to risk evidence.
func evidenceFrom(r *scenario.Result) *risk.Evidence {
	return &risk.Evidence{
		Collisions:     r.Collisions,
		DisbandedFrac:  r.DisbandedFrac,
		MaxSpacingErr:  r.MaxSpacingErr,
		GhostMembers:   r.GhostMembers,
		InfoYield:      r.EavesdropYield,
		VictimsEjected: r.VictimsEjected,
		JoinsDenied:    int(r.JoinsDenied),
	}
}

// summarize produces the measured-impact cell and checks the paper's
// property claim against the observation.
func summarize(a taxonomy.AttackClass, base, r *scenario.Result) (string, bool) {
	switch a.Key {
	case "sybil":
		ok := r.GhostMembers > 0 && !r.JoinerAdmitted
		return fmt.Sprintf("%d ghost members admitted; genuine joiner admitted=%v (baseline spacing %.2fm → %.2fm)",
			r.GhostMembers, r.JoinerAdmitted, base.MaxSpacingErr, r.MaxSpacingErr), ok
	case "fake-maneuver":
		ok := r.VictimsEjected > 0
		return fmt.Sprintf("%d members ejected by forged split; max spacing error %.1fm",
			r.VictimsEjected, r.MaxSpacingErr), ok
	case "replay":
		ok := r.MaxSpacingErr > base.MaxSpacingErr*1.5
		return fmt.Sprintf("max spacing error %.2fm vs %.2fm baseline (×%.1f oscillation)",
			r.MaxSpacingErr, base.MaxSpacingErr, r.MaxSpacingErr/nonzero(base.MaxSpacingErr)), ok
	case "jamming":
		ok := r.DisbandedFrac > 0.3
		return fmt.Sprintf("platoon disbanded %.0f%% of attack window; %d MAC starvation drops",
			r.DisbandedFrac*100, r.MACStuckDrops), ok
	case "eavesdropping":
		ok := r.EavesdropYield > 0.9
		return fmt.Sprintf("info yield %.2f; %d vehicles tracked end-to-end",
			r.EavesdropYield, r.EavesdropTracks), ok
	case "dos":
		ok := !r.JoinerAdmitted && r.JoinsDenied > 0
		return fmt.Sprintf("genuine joiner admitted=%v; %d joins denied under flood",
			r.JoinerAdmitted, r.JoinsDenied), ok
	case "impersonation":
		ok := r.VictimsEjected > 0
		return fmt.Sprintf("victim ejected via forged leave (ejected=%d)", r.VictimsEjected), ok
	case "sensor-spoofing":
		ok := r.MaxSpacingErr > base.MaxSpacingErr+1
		return fmt.Sprintf("victim spacing error %.1fm vs %.1fm baseline (GPS pull-back + blinded radar)",
			r.MaxSpacingErr, base.MaxSpacingErr), ok
	case "malware":
		ok := r.MaxSpacingErr > base.MaxSpacingErr*1.5
		return fmt.Sprintf("insider FDI spacing error %.1fm vs %.1fm baseline",
			r.MaxSpacingErr, base.MaxSpacingErr), ok
	default:
		return "no summary", false
	}
}

func nonzero(v float64) float64 {
	if v <= 0 {
		return 1e-9
	}
	return v
}

// Cell is one Table III (attack × mechanism) measurement.
type Cell struct {
	AttackKey    string
	MechanismKey string
	Undefended   *scenario.Result
	Defended     *scenario.Result
	// Mitigated is the measured verdict for this cell.
	Mitigated bool
	// Note explains the verdict.
	Note string
	// Claimed is whether the paper's Table III lists this pairing.
	Claimed bool
}

// verdict decides mitigation per attack-specific criteria. "Mitigated"
// means the attack's headline impact is removed or the offenders are
// reliably detected (the paper's control-algorithm mechanisms "can only
// reduce the impact", §VI-A3 — detection counts).
func verdict(attackKey string, undef, def *scenario.Result) (bool, string) {
	detected := def.DetectionCoverage >= 0.8 && def.DetectionPrecision >= 0.9
	switch attackKey {
	case "sybil":
		if def.GhostMembers == 0 {
			return true, "no ghosts admitted"
		}
		if detected {
			return true, fmt.Sprintf("ghosts admitted (%d) but detected (coverage %.2f)",
				def.GhostMembers, def.DetectionCoverage)
		}
		return false, fmt.Sprintf("%d ghosts admitted undetected", def.GhostMembers)
	case "fake-maneuver":
		if def.VictimsEjected == 0 && def.PhantomGap < undef.PhantomGap {
			return true, "forged maneuvers rejected"
		}
		if def.VictimsEjected == 0 {
			return true, "no members ejected"
		}
		return false, fmt.Sprintf("%d members still ejected", def.VictimsEjected)
	case "replay":
		if def.MaxSpacingErr <= max(2.5, undef.MaxSpacingErr*0.5) {
			return true, fmt.Sprintf("spacing error %.1fm vs %.1fm undefended",
				def.MaxSpacingErr, undef.MaxSpacingErr)
		}
		return false, fmt.Sprintf("spacing error still %.1fm", def.MaxSpacingErr)
	case "jamming":
		if def.DisbandedFrac <= 0.05 {
			return true, fmt.Sprintf("platoon holds (disbanded %.0f%% vs %.0f%%)",
				def.DisbandedFrac*100, undef.DisbandedFrac*100)
		}
		return false, fmt.Sprintf("still disbanded %.0f%%", def.DisbandedFrac*100)
	case "eavesdropping":
		if def.EavesdropYield <= 0.1 {
			return true, fmt.Sprintf("info yield %.2f vs %.2f undefended",
				def.EavesdropYield, undef.EavesdropYield)
		}
		return false, fmt.Sprintf("info yield still %.2f", def.EavesdropYield)
	case "dos":
		if def.JoinerAdmitted {
			return true, "genuine joiner admitted despite flood"
		}
		return false, "genuine joiner still denied"
	case "impersonation":
		if def.VictimsEjected == 0 {
			return true, "forged identity rejected"
		}
		if detected {
			return true, "impersonator detected"
		}
		return false, "victim still ejected"
	case "sensor-spoofing":
		if def.MaxSpacingErr <= max(2.5, undef.MaxSpacingErr*0.7) {
			return true, fmt.Sprintf("spacing error %.1fm vs %.1fm undefended",
				def.MaxSpacingErr, undef.MaxSpacingErr)
		}
		if detected {
			return true, "spoofed sensors detected"
		}
		return false, fmt.Sprintf("spacing error still %.1fm", def.MaxSpacingErr)
	case "malware":
		if def.MaxSpacingErr <= max(2.5, undef.MaxSpacingErr*0.7) {
			return true, fmt.Sprintf("spacing error %.1fm vs %.1fm undefended",
				def.MaxSpacingErr, undef.MaxSpacingErr)
		}
		if detected {
			return true, "insider FDI detected"
		}
		return false, "insider FDI unmitigated"
	default:
		return false, "unknown attack"
	}
}

// RiskEvidence converts Table II outcomes to the risk-matrix input.
func RiskEvidence(outcomes map[string]*AttackOutcome) map[string]*risk.Evidence {
	ev := make(map[string]*risk.Evidence, len(outcomes))
	for k, o := range outcomes {
		ev[k] = o.Evidence
	}
	return ev
}
