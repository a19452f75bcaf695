package taxonomy

import (
	"fmt"
	"strings"
)

// RenderTableI renders the related-surveys table as text.
func RenderTableI() string {
	var b strings.Builder
	b.WriteString("TABLE I — Related surveys addressing cybersecurity of CAV, VANETs and platoons\n")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	for _, s := range Surveys() {
		fmt.Fprintf(&b, "%-28s %s\n", s.Citation, wrap(s.KeyPoints, 48, 29))
		if len(s.Attacks) > 0 {
			fmt.Fprintf(&b, "%-28s attacks: %s\n", "", wrap(strings.Join(s.Attacks, ", "), 40, 38))
		}
		b.WriteString(strings.Repeat("-", 78) + "\n")
	}
	return b.String()
}

// RenderTableII renders the attack-classes table as text. measured, if
// non-nil, appends a per-attack measured-impact column keyed by attack
// key (filled in from simulation by cmd/docsgen).
func RenderTableII(measured map[string]string) string {
	var b strings.Builder
	b.WriteString("TABLE II — Threats to platoons and how each attack compromises the platoon\n")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	for _, a := range Attacks() {
		props := make([]string, len(a.Properties))
		for i, p := range a.Properties {
			props[i] = p.String()
		}
		fmt.Fprintf(&b, "%-22s compromises: %s\n", a.Title, strings.Join(props, ", "))
		fmt.Fprintf(&b, "%-22s %s\n", "", wrap(a.Summary, 54, 23))
		if measured != nil {
			if m, ok := measured[a.Key]; ok {
				fmt.Fprintf(&b, "%-22s measured: %s\n", "", wrap(m, 50, 33))
			}
		}
		b.WriteString(strings.Repeat("-", 78) + "\n")
	}
	return b.String()
}

// RenderTableIII renders the mechanisms table as text. measured, if
// non-nil, appends measured-mitigation notes keyed by mechanism key.
func RenderTableIII(measured map[string]string) string {
	var b strings.Builder
	b.WriteString("TABLE III — Mitigating effects of attacks on platoons and open challenges\n")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	for _, m := range Mechanisms() {
		fmt.Fprintf(&b, "%-26s mitigates: %s\n", m.Title, strings.Join(m.Mitigates, ", "))
		fmt.Fprintf(&b, "%-26s open challenge: %s\n", "", wrap(m.OpenChallenge, 36, 43))
		if measured != nil {
			if note, ok := measured[m.Key]; ok {
				fmt.Fprintf(&b, "%-26s measured: %s\n", "", wrap(note, 40, 37))
			}
		}
		b.WriteString(strings.Repeat("-", 78) + "\n")
	}
	return b.String()
}

// wrap soft-wraps s at width, indenting continuation lines.
func wrap(s string, width, indent int) string {
	words := strings.Fields(s)
	if len(words) == 0 {
		return ""
	}
	var b strings.Builder
	line := 0
	for i, w := range words {
		if i > 0 && line+1+len(w) > width {
			b.WriteString("\n" + strings.Repeat(" ", indent))
			line = 0
		} else if i > 0 {
			b.WriteString(" ")
			line++
		}
		b.WriteString(w)
		line += len(w)
	}
	return b.String()
}
