// Package risk implements the risk-assessment framework the paper names
// as an open challenge (§VI-B4): applying SAE J3061 / ISO/SAE 21434
// style likelihood × impact scoring to the platoon attack taxonomy.
//
// Likelihood derives from the taxonomy's attack-feasibility rating
// (equipment cost, required foothold); impact derives from *measured*
// simulation outcomes when available (collisions, disband time, privacy
// leakage), falling back to the property-based heuristic otherwise.
// The output is the risk matrix cmd/docsgen renders into
// docs_tables_output.txt.
package risk

import (
	"fmt"
	"sort"
	"strings"

	"platoonsec/internal/taxonomy"
)

// Level is a qualitative risk rating.
type Level int

// Risk levels.
const (
	LevelLow Level = iota + 1
	LevelMedium
	LevelHigh
	LevelCritical
)

func (l Level) String() string {
	switch l {
	case LevelLow:
		return "LOW"
	case LevelMedium:
		return "MEDIUM"
	case LevelHigh:
		return "HIGH"
	case LevelCritical:
		return "CRITICAL"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Evidence carries measured simulation outcomes for one attack; zero
// values mean "not observed". It maps the E2 experiment's observables
// into impact scoring.
type Evidence struct {
	// Collisions is the number of vehicle-body overlaps observed.
	Collisions int
	// DisbandedFrac is the fraction of member-time spent disbanded.
	DisbandedFrac float64
	// MaxSpacingErr is the worst |gap − target| in metres.
	MaxSpacingErr float64
	// GhostMembers is how many phantom vehicles entered the roster.
	GhostMembers int
	// InfoYield is the eavesdropper's decode fraction.
	InfoYield float64
	// VictimsEjected counts members forced out of the platoon.
	VictimsEjected int
	// JoinsDenied counts genuine joins denied service.
	JoinsDenied int
}

// ImpactScore converts evidence to a 1–5 severity, taking the worst
// consequence observed.
func (e Evidence) ImpactScore() int {
	score := 1
	raise := func(s int) {
		if s > score {
			score = s
		}
	}
	if e.Collisions > 0 {
		raise(5) // safety-critical
	}
	if e.DisbandedFrac > 0.5 {
		raise(4)
	} else if e.DisbandedFrac > 0.05 {
		raise(3)
	}
	if e.MaxSpacingErr > 15 {
		raise(4)
	} else if e.MaxSpacingErr > 5 {
		raise(3)
	} else if e.MaxSpacingErr > 2 {
		raise(2)
	}
	if e.GhostMembers > 0 || e.VictimsEjected > 0 {
		raise(3)
	}
	if e.InfoYield > 0.5 {
		raise(3) // privacy breach
	}
	if e.JoinsDenied > 0 {
		raise(2)
	}
	return score
}

// Assessment is one risk-matrix row.
type Assessment struct {
	Attack     taxonomy.AttackClass
	Likelihood int // 1–5, from feasibility
	Impact     int // 1–5, from evidence or heuristic
	Measured   bool
}

// Score returns likelihood × impact (1–25).
func (a Assessment) Score() int { return a.Likelihood * a.Impact }

// Level maps the score onto the standard 4-band matrix.
func (a Assessment) Level() Level {
	switch s := a.Score(); {
	case s >= 17:
		return LevelCritical
	case s >= 10:
		return LevelHigh
	case s >= 5:
		return LevelMedium
	default:
		return LevelLow
	}
}

// heuristicImpact scores an attack from its compromised properties when
// no measurement is available.
func heuristicImpact(a taxonomy.AttackClass) int {
	impact := 2
	for _, p := range a.Properties {
		switch p {
		case taxonomy.Integrity:
			if impact < 4 {
				impact = 4 // wrong control inputs risk collisions
			}
		case taxonomy.Availability:
			if impact < 3 {
				impact = 3
			}
		case taxonomy.Authenticity:
			if impact < 3 {
				impact = 3
			}
		case taxonomy.Confidentiality:
			// privacy: keep 2 unless something else raises it
		}
	}
	return impact
}

// Assess scores one attack. evidence may be nil for heuristic scoring.
func Assess(a taxonomy.AttackClass, evidence *Evidence) Assessment {
	out := Assessment{Attack: a, Likelihood: a.Feasibility}
	if a.Insider {
		// A required foothold lowers likelihood one band.
		if out.Likelihood > 1 {
			out.Likelihood--
		}
	}
	if evidence != nil {
		out.Impact = evidence.ImpactScore()
		out.Measured = true
	} else {
		out.Impact = heuristicImpact(a)
	}
	return out
}

// Matrix assesses every Table II attack, using measured evidence where
// provided (keyed by attack key).
func Matrix(evidence map[string]*Evidence) []Assessment {
	var out []Assessment
	for _, a := range taxonomy.Attacks() {
		out = append(out, Assess(a, evidence[a.Key]))
	}
	// Highest risk first; stable tiebreak on key.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score() != out[j].Score() {
			return out[i].Score() > out[j].Score()
		}
		return out[i].Attack.Key < out[j].Attack.Key
	})
	return out
}

// Render prints the matrix as text.
func Render(matrix []Assessment) string {
	var b strings.Builder
	b.WriteString("RISK MATRIX — ISO/SAE 21434-style assessment over the Table II taxonomy\n")
	fmt.Fprintf(&b, "%-22s %-11s %-7s %-6s %-9s %s\n",
		"attack", "likelihood", "impact", "score", "level", "basis")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	for _, a := range matrix {
		basis := "heuristic"
		if a.Measured {
			basis = "measured"
		}
		fmt.Fprintf(&b, "%-22s %-11d %-7d %-6d %-9s %s\n",
			a.Attack.Key, a.Likelihood, a.Impact, a.Score(), a.Level(), basis)
	}
	return b.String()
}
