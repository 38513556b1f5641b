package experiments

import (
	"fmt"
	"strings"

	"accuracytrader/internal/cf"
	"accuracytrader/internal/cluster"
	"accuracytrader/internal/core"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/workload"
)

// CFComparison is the result of the Table 1 / Table 2 experiment: the
// synthetic CF workload at increasing arrival rates, comparing Basic,
// Request reissue and AccuracyTrader on 99.9th-percentile component
// latency, and Partial execution vs AccuracyTrader on accuracy loss.
type CFComparison struct {
	Rates       []float64 // requests/second
	BasicTail   []float64 // ms
	ReissueTail []float64 // ms
	ATTail      []float64 // ms
	PartialLoss []float64 // %
	ATLoss      []float64 // %
	ATSetsMean  []float64 // mean ranked sets processed per sub-operation
}

// RunCFComparison executes one simulated session per arrival rate and
// technique and replays sampled requests for accuracy (paper §4.3,
// "Comparison using the synthetic CF-based recommendation workloads").
func RunCFComparison(svc *CFService, rates []float64) (*CFComparison, error) {
	sc := svc.Scale
	horizon := sc.SessionSeconds * 1000
	out := &CFComparison{Rates: rates}
	for ri, rate := range rates {
		seed := sc.Seed ^ uint64(ri+1)*0x9e37
		arrivals := workload.PoissonArrivals(stats.NewRNG(seed), rate, horizon)
		slow := slowdownFunc(seed, sc.Components, horizon+600000)
		resBasic, resRe, resAT, err := runTechniques(cluster.Config{
			Components: sc.Components,
			Arrivals:   arrivals,
			Work:       svc.Work,
			UnitCostMs: sc.cfUnitCostMs(),
			Slowdown:   slow,
			DeadlineMs: sc.DeadlineMs,
		})
		if err != nil {
			return nil, err
		}

		out.BasicTail = append(out.BasicTail, stats.Percentile(resBasic.ComponentLatencies(), 99.9))
		out.ReissueTail = append(out.ReissueTail, stats.Percentile(resRe.ComponentLatencies(), 99.9))
		out.ATTail = append(out.ATTail, stats.Percentile(resAT.ComponentLatencies(), 99.9))

		var sets stats.Summary
		for _, ops := range resAT.Ops {
			for _, op := range ops {
				sets.Add(float64(op.SetsProcessed))
			}
		}
		out.ATSetsMean = append(out.ATSetsMean, sets.Mean())

		pl, al := replayCFAccuracy(svc, resBasic, resAT, seed)
		out.PartialLoss = append(out.PartialLoss, pl)
		out.ATLoss = append(out.ATLoss, al)
	}
	return out, nil
}

// runTechniques simulates one workload under the paper's three latency
// techniques: Basic, Request reissue (hedging no earlier than two full
// scans) and AccuracyTrader.
func runTechniques(base cluster.Config) (basic, reissue, at *cluster.Result, err error) {
	base.Technique = cluster.Basic
	if basic, err = cluster.Run(base); err != nil {
		return nil, nil, nil, err
	}
	re := base
	re.Technique, re.HedgeFloorMs = cluster.Reissue, 2*fullScanMs
	if reissue, err = cluster.Run(re); err != nil {
		return nil, nil, nil, err
	}
	base.Technique = cluster.AccuracyTrader
	at, err = cluster.Run(base)
	return basic, reissue, at, err
}

// replayCFAccuracy replays sampled requests through the real CF engines:
// Partial execution composes the exact partial results of the components
// that met the deadline (from the Basic run, which shares its processing
// behaviour); AccuracyTrader composes each component's Algorithm 1 result
// after the sets the simulator says it had time to process. Accuracy uses
// the first Shards components (the distinct data; see package comment).
func replayCFAccuracy(svc *CFService, resBasic, resAT *cluster.Result, seed uint64) (partialLoss, atLoss float64) {
	sc := svc.Scale
	n := len(resBasic.Arrivals)
	if n == 0 {
		return 0, 0
	}
	samples := sc.AccuracySamples
	if samples > n {
		samples = n
	}
	reqs := svc.Data.SampleCFRequests(seed, samples, 0.2)
	var plSum, alSum stats.Summary
	// All result accumulators and prediction buffers are reused across the
	// sampled requests, and the per-shard Algorithm 1 runs draw engines
	// from the package pool — the replay loop allocates nothing per sample
	// at steady state.
	var exact, partial, at, shard cf.Result
	var preds, trivial []float64
	for i, spec := range reqs {
		ridx := i * n / len(reqs)
		req := cf.NewRequest(spec.Known, spec.Targets)
		activeMean := req.ActiveMean()

		exact = exact.Reset(len(req.Targets))
		partial = partial.Reset(len(req.Targets))
		at = at.Reset(len(req.Targets))
		for s := 0; s < sc.Shards; s++ {
			comp := svc.Comps[s]
			shard = cf.ExactResultInto(shard, comp, req)
			exact.Merge(shard)
			if resBasic.Ops[ridx][s].LatencyMs <= sc.DeadlineMs {
				partial.Merge(shard)
			}
			mergeATShard(at, comp, req, resAT.Ops[ridx][s].SetsProcessed)
		}
		trivial = trivial[:0]
		for range spec.Truth {
			trivial = append(trivial, activeMean)
		}
		baseRMSE := cf.RMSE(trivial, spec.Truth)
		preds = exact.PredictionsInto(preds, activeMean)
		exSkill := skill(cf.RMSE(preds, spec.Truth), baseRMSE)
		preds = partial.PredictionsInto(preds, activeMean)
		plSum.Add(lossPct(exSkill, skill(cf.RMSE(preds, spec.Truth), baseRMSE)))
		preds = at.PredictionsInto(preds, activeMean)
		alSum.Add(lossPct(exSkill, skill(cf.RMSE(preds, spec.Truth), baseRMSE)))
	}
	return plSum.Mean(), alSum.Mean()
}

// mergeATShard runs Algorithm 1 on one shard with a fixed set budget via
// a pooled engine and merges its partial result into at.
func mergeATShard(at cf.Result, comp *cf.Component, req cf.Request, k int) {
	e := cf.GetEngine(comp, req)
	core.Run(e, core.BudgetContinue(k), 0)
	at.Merge(e.Result())
	e.Release()
}

// Render renders both tables.
func (c *CFComparison) Render() string { return c.RenderTable1() + "\n" + c.RenderTable2() }

// RenderTable1 renders the Table 1 analogue.
func (c *CFComparison) RenderTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE 1. 99.9th percentile component latency (ms), CF recommender workloads\n")
	fmt.Fprintf(&b, "%-22s", "Request arrival rate")
	for _, r := range c.Rates {
		fmt.Fprintf(&b, "%12.0f", r)
	}
	b.WriteString("\n")
	row := func(name string, vals []float64) {
		fmt.Fprintf(&b, "%-22s", name)
		for _, v := range vals {
			fmt.Fprintf(&b, "%12.0f", v)
		}
		b.WriteString("\n")
	}
	row("Basic", c.BasicTail)
	row("Request reissue", c.ReissueTail)
	row("AccuracyTrader", c.ATTail)
	return b.String()
}

// RenderTable2 renders the Table 2 analogue.
func (c *CFComparison) RenderTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE 2. Accuracy losses (%%), CF recommender workloads\n")
	fmt.Fprintf(&b, "%-22s", "Request arrival rate")
	for _, r := range c.Rates {
		fmt.Fprintf(&b, "%12.0f", r)
	}
	b.WriteString("\n")
	row := func(name string, vals []float64) {
		fmt.Fprintf(&b, "%-22s", name)
		for _, v := range vals {
			fmt.Fprintf(&b, "%12.2f", v)
		}
		b.WriteString("\n")
	}
	row("Partial execution", c.PartialLoss)
	row("AccuracyTrader", c.ATLoss)
	return b.String()
}
