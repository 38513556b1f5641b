package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ClassLabel names a wire SLO class byte (0 exact, 1 bounded, 2
// best-effort, 0xff none).
func ClassLabel(slo uint8) string {
	switch slo {
	case 0:
		return "Exact"
	case 1:
		return "Bounded"
	case 2:
		return "BestEffort"
	default:
		return "None"
	}
}

// StageBreakdown is where a request's wall time went, in milliseconds,
// along the critical path: the slowest sub-operation stands in for the
// fan-out (the gather waits for it), split into the server-side queue
// wait, server-side execution, and the transport remainder.
type StageBreakdown struct {
	AdmissionMs float64 `json:"admission_ms"`
	CacheMs     float64 `json:"cache_ms"`
	QueueMs     float64 `json:"queue_ms"`
	ExecMs      float64 `json:"exec_ms"`
	NetMs       float64 `json:"net_ms"`
	MergeMs     float64 `json:"merge_ms"`
	OtherMs     float64 `json:"other_ms"`
}

func (sb *StageBreakdown) addScaled(o StageBreakdown, f float64) {
	sb.AdmissionMs += o.AdmissionMs * f
	sb.CacheMs += o.CacheMs * f
	sb.QueueMs += o.QueueMs * f
	sb.ExecMs += o.ExecMs * f
	sb.NetMs += o.NetMs * f
	sb.MergeMs += o.MergeMs * f
	sb.OtherMs += o.OtherMs * f
}

// ClassSummary aggregates one SLO class's traces.
type ClassSummary struct {
	Class    uint8  `json:"class"`
	Label    string `json:"label"`
	Count    int    `json:"count"`
	Rejected int    `json:"rejected"`
	Degraded int    `json:"degraded"`
	CacheHit int    `json:"cache_hits"`
	Hedged   int    `json:"hedged"` // traces with at least one hedge fire
	answered int

	MeanTotalMs  float64        `json:"mean_total_ms"`
	P99TotalMs   float64        `json:"p99_total_ms"`
	MeanBudgetMs float64        `json:"mean_budget_ms"` // mean deadline budget (0 = unbounded)
	Mean         StageBreakdown `json:"mean_stages"`

	totals []float64
}

// Summary is the per-class deadline-budget breakdown over a batch of
// traces — the answer to "where did slow requests spend their budget".
type Summary struct {
	Traces   int            `json:"traces"`
	Answered int            `json:"answered"`
	Classes  []ClassSummary `json:"classes"`
}

// Breakdown computes one trace's critical-path stage breakdown.
func Breakdown(tv TraceView) StageBreakdown {
	var sb StageBreakdown
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	// Critical path: the slowest sub-operation bounds the gather.
	critIdx := -1
	var critDur time.Duration
	for i, sp := range tv.Spans {
		switch sp.Kind {
		case SpanAdmission:
			sb.AdmissionMs += ms(sp.Dur)
		case SpanCache:
			sb.CacheMs += ms(sp.Dur)
		case SpanMerge:
			sb.MergeMs += ms(sp.Dur)
		case SpanSubOp:
			if critIdx < 0 || sp.Dur > critDur {
				critIdx, critDur = i, sp.Dur
			}
		}
	}
	if critIdx >= 0 {
		crit := tv.Spans[critIdx]
		var srv time.Duration
		for _, sp := range tv.Spans {
			if !sp.Remote || sp.Comp != crit.Comp {
				continue
			}
			switch sp.Kind {
			case SpanServerQueue:
				sb.QueueMs += ms(sp.Dur)
				srv += sp.Dur
			case SpanServerExec:
				sb.ExecMs += ms(sp.Dur)
				srv += sp.Dur
			}
		}
		if net := crit.Dur - srv; net > 0 {
			sb.NetMs = ms(net)
		}
	}
	if other := ms(time.Duration(tv.DurNs)) - Accounted(tv); other > 0 {
		sb.OtherMs = other
	}
	return sb
}

// Accounted returns the milliseconds of the trace's total duration
// explained by its spans along the critical path: admission + cache +
// the slowest sub-operation + merge. The gap to the measured total is
// scheduling/transport slack the spans do not cover.
func Accounted(tv TraceView) float64 {
	var acc, critDur time.Duration
	for _, sp := range tv.Spans {
		switch sp.Kind {
		case SpanAdmission, SpanCache, SpanMerge:
			acc += sp.Dur
		case SpanSubOp:
			if sp.Dur > critDur {
				critDur = sp.Dur
			}
		}
	}
	return float64(acc+critDur) / float64(time.Millisecond)
}

// Summarize aggregates traces into per-SLO-class budget tables.
// Unfinished traces are skipped.
func Summarize(traces []TraceView) *Summary {
	byClass := map[uint8]*ClassSummary{}
	var order []uint8
	s := &Summary{}
	for _, tv := range traces {
		if !tv.Done {
			continue
		}
		s.Traces++
		cs, ok := byClass[tv.SLO]
		if !ok {
			cs = &ClassSummary{Class: tv.SLO, Label: ClassLabel(tv.SLO)}
			byClass[tv.SLO] = cs
			order = append(order, tv.SLO)
		}
		cs.Count++
		if tv.Verdict == VerdictRejected {
			cs.Rejected++
			continue
		}
		if tv.Verdict == VerdictDegraded {
			cs.Degraded++
		}
		if tv.CacheOutcome == CacheHit || tv.CacheOutcome == CacheCoalesced {
			cs.CacheHit++
		}
		for _, sp := range tv.Spans {
			if sp.Kind == SpanHedge {
				cs.Hedged++
				break
			}
		}
		s.Answered++
		cs.answered++
		totalMs := float64(tv.DurNs) / float64(time.Millisecond)
		cs.MeanTotalMs += totalMs
		cs.totals = append(cs.totals, totalMs)
		if tv.DeadlineNs != 0 {
			if budget := float64(tv.DeadlineNs-tv.Start) / float64(time.Millisecond); budget > 0 {
				cs.MeanBudgetMs += budget
			}
		}
		cs.Mean.addScaled(Breakdown(tv), 1)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, class := range order {
		cs := byClass[class]
		if n := float64(cs.answered); n > 0 {
			cs.MeanTotalMs /= n
			cs.MeanBudgetMs /= n
			cs.Mean.addScaled(cs.Mean, 1/n-1) // divide in place
		}
		sort.Float64s(cs.totals)
		if len(cs.totals) > 0 {
			cs.P99TotalMs = cs.totals[min(len(cs.totals)-1, (len(cs.totals)*99)/100)]
		}
		cs.totals = nil
		s.Classes = append(s.Classes, *cs)
	}
	return s
}

// Render formats the summary as the deadline-budget breakdown table:
// one row per SLO class, stage columns in mean milliseconds along the
// critical path.
func (s *Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TRACE SUMMARY: %d traces (%d answered)\n", s.Traces, s.Answered)
	fmt.Fprintf(&b, "  %-10s %6s %5s %5s %6s %6s %8s %8s %8s | %9s %7s %7s %7s %7s %7s %7s\n",
		"class", "n", "rej", "degr", "cache", "hedge", "mean ms", "p99 ms", "budget",
		"admission", "cache", "queue", "exec", "net", "merge", "other")
	for _, cs := range s.Classes {
		fmt.Fprintf(&b, "  %-10s %6d %5d %5d %6d %6d %8.2f %8.2f %8.1f | %9.2f %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f\n",
			cs.Label, cs.Count, cs.Rejected, cs.Degraded, cs.CacheHit, cs.Hedged,
			cs.MeanTotalMs, cs.P99TotalMs, cs.MeanBudgetMs,
			cs.Mean.AdmissionMs, cs.Mean.CacheMs, cs.Mean.QueueMs, cs.Mean.ExecMs,
			cs.Mean.NetMs, cs.Mean.MergeMs, cs.Mean.OtherMs)
	}
	b.WriteString("  (stage columns: mean ms on the critical path — the slowest sub-operation bounds the gather;\n")
	b.WriteString("   net = sub-op time outside the server, other = total minus every accounted stage)\n")
	return b.String()
}
