package main

import (
	"fmt"
	"sort"
	"strings"

	"platoonsec/internal/lab"
	"platoonsec/internal/risk"
	"platoonsec/internal/taxonomy"
)

// renderTables renders the paper-tables transcript
// (docs_tables_output.txt): Table I from the registry, Tables II and
// III with their measured cells, and the risk matrix from the measured
// Table II evidence.
func renderTables(t *lab.Tables) []byte {
	tableII := make(map[string]string, len(t.Outcomes))
	for k, o := range t.Outcomes {
		tableII[k] = fmt.Sprintf("[%s] %s", statusOf(o), o.Summary)
	}

	pairs := make([]lab.Pair, 0, len(t.Cells))
	for p := range t.Cells {
		pairs = append(pairs, p)
	}
	// Each mechanism's cell lists its attacks in key order.
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Attack < pairs[j].Attack })
	tableIII := make(map[string]string)
	for _, p := range pairs {
		cell := t.Cells[p]
		tableIII[p.Mechanism] += fmt.Sprintf("%s: %s (%s); ", p.Attack, verdictOf(cell), cell.Note)
	}
	for k, v := range tableIII {
		tableIII[k] = strings.TrimSuffix(v, "; ")
	}

	var b strings.Builder
	for _, table := range []string{
		taxonomy.RenderTableI(),
		taxonomy.RenderTableII(tableII),
		taxonomy.RenderTableIII(tableIII),
		risk.Render(risk.Matrix(lab.RiskEvidence(t.Outcomes))),
	} {
		b.WriteString(table)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}
