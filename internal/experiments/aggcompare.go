package experiments

import (
	"fmt"
	"math"
	"strings"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cluster"
	"accuracytrader/internal/core"
)

// The aggcompare experiment (third-workload extension, not a paper
// figure) evaluates the approximate aggregation application on both
// axes the paper trades:
//
//  1. Accuracy vs latency across the synopsis ladder: each ladder
//     level's sampling rate is replayed over real fact-table shards,
//     reporting the measured synopsis-only accuracy (1 − mean relative
//     error vs the exact GROUP-BY answers), the accuracy after
//     Algorithm 1 improves the most uncertain strata by relative CLT
//     bound, the modeled light-load service time of the level's scan
//     volume, and the rows that improvement reads (each improved
//     stratum's rows past its sample).
//  2. An overload sweep mirroring `-exp overload`, with the simulated
//     components serving the aggregation work model and the frontend's
//     degradation controller calibrated with the *measured* per-level
//     accuracies from step 1 — so Bounded{0.90} requests are held above
//     a floor that means something for this workload.

// aggImproveFrac is the fraction of ranked strata Algorithm 1 improves
// in the level table's "+improve" column.
const aggImproveFrac = 0.25

// AggLevelRow is one ladder level of the accuracy-vs-latency table.
type AggLevelRow struct {
	Level        int
	Rate         float64 // sampling rate
	UnitsPerComp float64 // mean sampled rows per shard
	ModelMs      float64 // modeled light-load service time of that scan
	SynAccuracy  float64 // measured, synopsis only
	ImprovedAcc  float64 // measured, after improving aggImproveFrac of strata
	ImproveUnits float64 // mean rows per shard that improvement reads past the sample
}

// AggCompare is the full experiment result.
type AggCompare struct {
	Queries int
	Shards  int
	Levels  []AggLevelRow
	// LevelAccuracy feeds the overload sweep's degradation controller:
	// the measured SynAccuracy per level, coarse to fine.
	LevelAccuracy []float64
	Overload      *OverloadSweep
}

// RunAggCompare measures the ladder and runs the frontend overload
// sweep over the aggregation workload.
func RunAggCompare(sc Scale, multipliers []float64) (*AggCompare, error) {
	svc, err := BuildAggService(sc)
	if err != nil {
		return nil, err
	}
	queries := svc.Data.SampleAggQueries(sc.Seed^0x8a6, sc.AccuracySamples)
	res := &AggCompare{Queries: len(queries), Shards: sc.Shards}

	levels := svc.Comps[0].Syn.Levels()
	synSum := make([]float64, levels)
	impSum := make([]float64, levels)
	impRows := make([]int, levels)
	nKeys := svc.Comps[0].T.NumKeys()
	approx := agg.NewResult(nKeys)
	improved := agg.NewResult(nKeys)
	exact := agg.NewResult(nKeys)
	var scratch agg.Result
	var estA, estI, estE []float64
	for _, q := range queries {
		exact = exact.Reset(nKeys)
		for _, c := range svc.Comps {
			scratch = agg.ExactResultInto(scratch, c, q)
			exact.Merge(scratch)
		}
		estE = exact.EstimatesInto(estE, q.Op)
		for l := 0; l < levels; l++ {
			approx = approx.Reset(nKeys)
			improved = improved.Reset(nKeys)
			for _, c := range svc.Comps {
				// Synopsis-only answer (pooled engines, as in the runtime),
				// then Algorithm 1's ranked improvement of the most
				// uncertain strata on the same engine — reusing the
				// correlations instead of re-processing the synopsis.
				e := agg.GetEngine(c, q, l)
				corr := e.ProcessSynopsis()
				approx.Merge(e.Result())
				budget := int(math.Ceil(aggImproveFrac * float64(c.Syn.NumStrata())))
				for _, g := range core.Rank(corr)[:budget] {
					impRows[l] += e.GroupSize(g)
					e.ProcessSet(g)
				}
				improved.Merge(e.Result())
				e.Release()
			}
			estA = approx.EstimatesInto(estA, q.Op)
			estI = improved.EstimatesInto(estI, q.Op)
			synSum[l] += agg.Accuracy(estA, estE)
			impSum[l] += agg.Accuracy(estI, estE)
		}
	}
	unit := sc.aggUnitCostMs()
	for l := 0; l < levels; l++ {
		units := 0.0
		for _, c := range svc.Comps {
			units += float64(c.Syn.SampleUnits(l))
		}
		units /= float64(len(svc.Comps))
		synAcc := synSum[l] / float64(len(queries))
		res.Levels = append(res.Levels, AggLevelRow{
			Level:        l,
			Rate:         svc.Comps[0].Syn.Rates()[l],
			UnitsPerComp: units,
			ModelMs:      units * unit,
			SynAccuracy:  synAcc,
			ImprovedAcc:  impSum[l] / float64(len(queries)),
			ImproveUnits: float64(impRows[l]) / float64(len(queries)*len(svc.Comps)),
		})
		res.LevelAccuracy = append(res.LevelAccuracy, synAcc)
	}

	// The overload sweep over the aggregation work model, its controller
	// calibrated with the accuracies just measured.
	res.Overload, err = overloadSweep(sc, cluster.Config{
		Components: sc.Components,
		Work:       svc.Work,
		UnitCostMs: unit,
		DeadlineMs: sc.DeadlineMs,
		// The recommender-style cap: every stratum is eligible.
		IMaxFrac: 1.0,
	}, 0xa66, res.LevelAccuracy, multipliers)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the experiment as paper-style text tables.
func (a *AggCompare) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AGGREGATION WORKLOAD (internal/agg): accuracy vs latency across the synopsis ladder\n")
	fmt.Fprintf(&b, "(%d SUM/COUNT/AVG-per-group queries over %d shards; accuracy = 1 - mean relative error vs exact;\n",
		a.Queries, a.Shards)
	fmt.Fprintf(&b, " '+improve' = Algorithm 1 processing the %.0f%% most uncertain strata by relative CLT bound)\n\n",
		100*aggImproveFrac)
	fmt.Fprintf(&b, "  %-7s %8s %12s %12s %12s %12s %18s\n",
		"level", "rate", "rows/comp", "model ms", "accuracy", "+improve", "improve rows/comp")
	for _, row := range a.Levels {
		fmt.Fprintf(&b, "  %-7d %8.2f %12.0f %12.2f %12.4f %12.4f %18.0f\n",
			row.Level, row.Rate, row.UnitsPerComp, row.ModelMs, row.SynAccuracy, row.ImprovedAcc, row.ImproveUnits)
	}
	b.WriteString("\nOverload sweep over the aggregation work model (controller calibrated with the measured\nper-level accuracies above):\n\n")
	b.WriteString(a.Overload.Render())
	return b.String()
}
