package experiment

import (
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/report"
)

// BlameFromSummary converts one run's telemetry read-out into the causal
// attribution table: one row per span kind with recorded spans, carrying the
// stage latency budget, the dominant stage and its share. Span kinds that
// recorded nothing are omitted.
func BlameFromSummary(scenario string, sum *obs.Summary) *report.Blame {
	b := &report.Blame{Title: "Causal latency attribution: " + scenario}
	if sum == nil {
		return b
	}
	for i := range sum.Spans {
		sp := &sum.Spans[i]
		if sp.Count == 0 {
			continue
		}
		row := report.BlameRow{
			Scenario:    scenario,
			Kind:        sp.Kind,
			Count:       sp.Count,
			Open:        sp.Open,
			TotalMs:     ms(sp.Total),
			P50us:       us(sp.P50),
			P99us:       us(sp.P99),
			P999us:      us(sp.P999),
			Dominant:    sp.Blame,
			DominantPct: sp.BlamePct,
		}
		for _, st := range sp.Stages {
			row.Stages = append(row.Stages, report.BlameStage{
				Name:    st.Name,
				Pct:     st.Share,
				TotalMs: ms(st.Total),
				P99us:   us(st.P99),
			})
		}
		b.Rows = append(b.Rows, row)
	}
	return b
}
