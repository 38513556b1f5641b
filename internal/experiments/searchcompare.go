package experiments

import (
	"accuracytrader/internal/cluster"
	"accuracytrader/internal/core"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/textindex"
	"accuracytrader/internal/workload"
)

// SearchWindow is one simulated measurement window of the search service
// under a time-varying arrival rate: the three latency techniques plus
// per-sample accuracy replays for the two approximate techniques.
type SearchWindow struct {
	WindowMs float64
	Arrivals []float64
	Basic    *cluster.Result
	Re       *cluster.Result
	AT       *cluster.Result
	// Accuracy samples: times (ms within the window) with the losses of
	// Partial execution and AccuracyTrader at those requests.
	SampleTimes []float64
	PartialLoss []float64
	ATLoss      []float64
}

// windowArrivals maps one hour of the diurnal pattern onto a simulated
// window of windowMs: the rate profile is time-warped so the within-hour
// trend (increasing / steady / decreasing) is preserved.
func windowArrivals(rng *stats.RNG, p workload.DiurnalPattern, hour int, windowMs float64) []float64 {
	const hourMs = 3600_000.0
	start := float64(hour-1) * hourMs
	var out []float64
	// Thinning over the warped profile.
	maxRate := 0.0
	for i := 0; i <= 16; i++ {
		if r := p.Rate(start + float64(i)*hourMs/16); r > maxRate {
			maxRate = r
		}
	}
	if maxRate <= 0 {
		return nil
	}
	t := 0.0
	for {
		t += rng.Exp(maxRate / 1000)
		if t >= windowMs {
			return out
		}
		warped := start + t/windowMs*hourMs
		if rng.Float64() < p.Rate(warped)/maxRate {
			out = append(out, t)
		}
	}
}

// RunSearchWindow simulates one window of the search workload under all
// techniques and replays sampled queries for accuracy.
func RunSearchWindow(svc *SearchService, arrivals []float64, windowMs float64, seed uint64) (*SearchWindow, error) {
	sc := svc.Scale
	slow := slowdownFunc(seed, sc.Components, windowMs+600000)
	w := &SearchWindow{WindowMs: windowMs, Arrivals: arrivals}
	var err error
	w.Basic, w.Re, w.AT, err = runTechniques(cluster.Config{
		Components: sc.Components,
		Arrivals:   arrivals,
		Work:       svc.Work,
		UnitCostMs: sc.searchUnitCostMs(),
		Slowdown:   slow,
		DeadlineMs: sc.DeadlineMs,
		// Paper §4.3: the search engine processes at most the top 40% of
		// ranked aggregated pages (they hold >98% of actual top-10 pages).
		IMaxFrac: 0.4,
	})
	if err != nil {
		return nil, err
	}
	w.replayAccuracy(svc, seed)
	return w, nil
}

// replayAccuracy samples queries across the window and computes the
// top-10 overlap losses of Partial execution and AccuracyTrader against
// exact processing, using the real search engines and the per-component
// outcomes of the simulation (first Shards components; see package
// comment).
func (w *SearchWindow) replayAccuracy(svc *SearchService, seed uint64) {
	sc := svc.Scale
	n := len(w.Arrivals)
	if n == 0 {
		return
	}
	samples := sc.AccuracySamples
	if samples > n {
		samples = n
	}
	queries := svc.Data.SampleQueries(seed^0x77, samples)
	// The per-shard hit-list collections are reused across samples; the
	// Algorithm 1 runs inside atShardTopK draw engines from the package
	// pool instead of allocating one per (sample × shard).
	var exact, partial, at [][]textindex.Hit
	for i, qs := range queries {
		ridx := i * n / len(queries)
		exact, partial, at = exact[:0], partial[:0], at[:0]
		for s := 0; s < sc.Shards; s++ {
			comp := svc.Comps[s]
			q := comp.Ix.ParseQuery(qs)
			ex := globalHits(textindex.ExactTopK(comp, q, 10), s)
			exact = append(exact, ex)
			if w.Basic.Ops[ridx][s].LatencyMs <= sc.DeadlineMs {
				partial = append(partial, ex)
			}
			at = append(at, globalHits(atShardTopK(comp, q, w.AT.Ops[ridx][s].SetsProcessed), s))
		}
		exTop := textindex.MergeTopK(exact, 10)
		pOverlap := textindex.TopKOverlap(exTop, textindex.MergeTopK(partial, 10))
		aOverlap := textindex.TopKOverlap(exTop, textindex.MergeTopK(at, 10))
		w.SampleTimes = append(w.SampleTimes, w.Arrivals[ridx])
		w.PartialLoss = append(w.PartialLoss, overlapLossPct(pOverlap))
		w.ATLoss = append(w.ATLoss, overlapLossPct(aOverlap))
	}
}

// globalHits rewrites shard-local doc ids into globally unique ids.
func globalHits(hits []textindex.Hit, shard int) []textindex.Hit {
	out := make([]textindex.Hit, len(hits))
	for i, h := range hits {
		out[i] = textindex.Hit{Doc: shard*10_000_000 + h.Doc, Score: h.Score}
	}
	return out
}

// atShardTopK runs Algorithm 1 on one shard with a fixed set budget via
// a pooled engine and returns its current top-10.
func atShardTopK(comp *textindex.Component, q textindex.Query, k int) []textindex.Hit {
	e := textindex.GetEngine(comp, q)
	core.Run(e, core.BudgetContinue(k), 0)
	hits := e.TopK(10)
	e.Release()
	return hits
}

// MinuteTail returns the per-minute-bin p-th percentile component latency
// for one technique's result, with bins minutes of the represented hour.
func (w *SearchWindow) MinuteTail(res *cluster.Result, p float64, bins int) []float64 {
	s := newTimeSeries(w.WindowMs/float64(bins), bins)
	for i, a := range res.Arrivals {
		for _, op := range res.Ops[i] {
			s.Add(a, op.LatencyMs)
		}
	}
	return s.PercentileSeries(p)
}

// MinuteRate returns the per-minute-bin arrival rate in requests/second
// of the represented hour (each bin of the window maps to one minute).
func (w *SearchWindow) MinuteRate(bins int) []float64 {
	binMs := w.WindowMs / float64(bins)
	counts := make([]float64, bins)
	for _, a := range w.Arrivals {
		i := int(a / binMs)
		if i >= 0 && i < bins {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= binMs / 1000
	}
	return counts
}

// MinuteLoss bins the accuracy-loss samples of one technique (per-minute
// means). kind selects "partial" or "at".
func (w *SearchWindow) MinuteLoss(kind string, bins int) []float64 {
	s := newTimeSeries(w.WindowMs/float64(bins), bins)
	vals := w.ATLoss
	if kind == "partial" {
		vals = w.PartialLoss
	}
	for i, t := range w.SampleTimes {
		s.Add(t, vals[i])
	}
	return s.MeanSeries()
}

// TailOverall returns the p-th percentile component latency over the
// whole window for one technique's result.
func TailOverall(res *cluster.Result, p float64) float64 {
	return stats.Percentile(res.ComponentLatencies(), p)
}

// MeanLoss returns the mean accuracy loss over the whole window.
func (w *SearchWindow) MeanLoss(kind string) float64 {
	vals := w.ATLoss
	if kind == "partial" {
		vals = w.PartialLoss
	}
	var s stats.Summary
	for _, v := range vals {
		s.Add(v)
	}
	return s.Mean()
}
