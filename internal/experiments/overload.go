package experiments

import (
	"fmt"
	"strings"

	"accuracytrader/internal/cluster"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/workload"
)

// The overload sweep (frontend extension, not a paper figure) drives
// the simulated search-shaped service across offered loads from half
// to several times the exact-processing saturation rate and compares:
//
//   - Basic (WaitAll): exact processing, compose when the last
//     component answers.
//   - Partial: the same run composed at the deadline, skipping late
//     components (accuracy = completed fraction).
//   - Frontend+AT: AccuracyTrader components behind the accuracy-aware
//     frontend — admission (inflight cap + queue watermark), 2-replica
//     least-loaded routing, and EWMA load→ladder-level degradation
//     honoring per-request SLO classes.
//
// Goodput counts requests answered within goodLatencyFactor x the
// deadline whose delivered accuracy reaches goodAccuracyFloor; shed
// requests never count. Delivered accuracy is the simulator's model
// estimate: exact results score 1, approximate results score the
// ladder level's synopsis accuracy plus the improvement earned by the
// ranked sets each component had time to process.
const (
	goodAccuracyFloor = 0.5
	goodLatencyFactor = 1.1
)

// overloadClassMix assigns request r its SLO class, interleaved
// deterministically; overloadClassMixLabel must describe it.
const overloadClassMixLabel = "20% Exact / 30% Bounded{0.90} / 50% BestEffort"

func overloadClassMix(r int) frontend.SLO {
	switch r % 10 {
	case 0, 1:
		return frontend.ExactSLO()
	case 2, 3, 4:
		return frontend.BoundedSLO(0.9)
	default:
		return frontend.BestEffortSLO()
	}
}

// overloadLadderAccuracy estimates the synopsis-only accuracy of each
// ladder level, coarse to fine; the finest level matches the paper's
// ~95% initial accuracy and improvement with ranked sets closes the
// rest of the gap.
var overloadLadderAccuracy = []float64{0.55, 0.7, 0.85, 0.95}

// OverloadRow is one configuration at one offered load.
type OverloadRow struct {
	Name          string
	GoodputPerSec float64
	P999Ms        float64
	RejectedPct   float64
	// ClassAccuracy[k] is the mean delivered accuracy of class k
	// (indexed by frontend.SLOKind) over answered requests; NaN-free:
	// classes with no answered requests report 0.
	ClassAccuracy [3]float64
}

// OverloadPoint is one offered-load step of the sweep.
type OverloadPoint struct {
	Multiplier float64
	RatePerSec float64
	Rows       []OverloadRow
}

// OverloadSweep is the full experiment result.
type OverloadSweep struct {
	SaturationRate float64 // exact-processing saturation, req/s
	DeadlineMs     float64
	WindowSeconds  float64
	Points         []OverloadPoint
}

// overloadWork builds the synthetic search-shaped work model with a
// 4-level synopsis ladder (finest = the Scale's compression ratio).
func overloadWork(sc Scale) cluster.WorkModel {
	full := float64(sc.DocsPerSubset)
	groups := sc.DocsPerSubset / sc.CompressionRatio
	if groups < 1 {
		groups = 1
	}
	syn := full / float64(sc.CompressionRatio)
	return cluster.WorkModel{
		FullUnits:     full,
		SynopsisUnits: syn,
		NumGroups:     groups,
		// Coarse to fine by halving from the regular (finest) synopsis,
		// so the ladder stays ascending at any compression ratio.
		SynopsisLadder: []float64{syn / 8, syn / 4, syn / 2, syn},
	}
}

// RunOverload sweeps offered load across the multipliers (of the
// exact-processing saturation rate) and measures every configuration.
func RunOverload(sc Scale, multipliers []float64) (*OverloadSweep, error) {
	return overloadSweep(sc, cluster.Config{
		Components: sc.Components,
		Work:       []cluster.WorkModel{overloadWork(sc)},
		UnitCostMs: sc.searchUnitCostMs(),
		DeadlineMs: sc.DeadlineMs,
		// Paper §4.3: the search engine caps improvement at the top 40%
		// of ranked sets.
		IMaxFrac: 0.4,
	}, 0x0ad, overloadLadderAccuracy, multipliers)
}

// overloadSweep is the one sweep loop behind `overload` and
// `aggcompare`: base carries the simulated service (work model, unit
// cost, improvement cap), salt separates the arrival streams, and
// levelAcc is the per-level synopsis accuracy (coarse to fine) that
// both calibrates the degradation controller and scores Frontend+AT.
func overloadSweep(sc Scale, base cluster.Config, salt uint64, levelAcc, multipliers []float64) (*OverloadSweep, error) {
	satRate := 1000 / (base.Work[0].FullUnits * base.UnitCostMs) // one component, exact scans
	windowMs := sc.SessionSeconds * 1000
	sweep := &OverloadSweep{
		SaturationRate: satRate,
		DeadlineMs:     sc.DeadlineMs,
		WindowSeconds:  sc.SessionSeconds,
	}
	for i, m := range multipliers {
		rate := m * satRate
		rng := stats.NewRNG(sc.Seed).Split(uint64(i) + salt)
		arrivals := workload.PoissonArrivals(rng, rate, windowMs)
		if len(arrivals) == 0 {
			// Dropping the point silently would misalign Points with the
			// requested multipliers.
			return nil, fmt.Errorf("experiments: no arrivals at %gx saturation (%.2f req/s over %.0fs)",
				m, rate, sc.SessionSeconds)
		}
		point := OverloadPoint{Multiplier: m, RatePerSec: rate}

		// Basic and Partial share one exact-processing run.
		cfgB := base
		cfgB.Arrivals = arrivals
		cfgB.Technique = cluster.Basic
		resB, err := cluster.Run(cfgB)
		if err != nil {
			return nil, err
		}
		point.Rows = append(point.Rows,
			scoreBasic(resB, sc, sweep.WindowSeconds, overloadClassMix),
			scorePartial(resB, sc, sweep.WindowSeconds, overloadClassMix))

		// Frontend+AT: fresh policy state per run.
		opts, err := standardOptions(4*sc.Components, levelAcc)
		if err != nil {
			return nil, err
		}
		cfgF := base
		cfgF.Arrivals = arrivals
		cfgF.Technique = cluster.AccuracyTrader
		cfgF.Frontend = &cluster.FrontendConfig{Options: opts, QueueCap: 32, ClassOf: overloadClassMix}
		resF, err := cluster.Run(cfgF)
		if err != nil {
			return nil, err
		}
		point.Rows = append(point.Rows,
			scoreFrontend(resF, cfgF.Work, levelAcc, sc.DeadlineMs, sweep.WindowSeconds))
		sweep.Points = append(sweep.Points, point)
	}
	return sweep, nil
}

// overloadRow closes one simulated configuration's tally into its row.
func overloadRow(name string, res *cluster.Result, t *tally, windowSec float64, rejected int) OverloadRow {
	row := OverloadRow{
		Name:        name,
		P999Ms:      stats.Percentile(res.ComponentLatencies(), 99.9),
		RejectedPct: 100 * float64(rejected) / float64(len(res.Ops)),
	}
	row.GoodputPerSec, _, row.ClassAccuracy = t.means(windowSec)
	return row
}

func scoreBasic(res *cluster.Result, sc Scale, windowSec float64, classOf func(int) frontend.SLO) OverloadRow {
	var t tally
	for r, lat := range res.ServiceLatencies(true, 0) {
		t.add(classOf(r).Kind, 1, lat <= goodLatencyFactor*sc.DeadlineMs) // exact results
	}
	return overloadRow("Basic (WaitAll)", res, &t, windowSec, 0)
}

func scorePartial(res *cluster.Result, sc Scale, windowSec float64, classOf func(int) frontend.SLO) OverloadRow {
	var t tally
	for r := range res.Ops {
		// Composition at the deadline: latency is capped there, accuracy
		// is the fraction of components that made it.
		acc := res.CompletedFraction(r, sc.DeadlineMs)
		t.add(classOf(r).Kind, acc, acc >= goodAccuracyFloor)
	}
	return overloadRow("PartialGather", res, &t, windowSec, 0)
}

func scoreFrontend(res *cluster.Result, works []cluster.WorkModel, levelAcc []float64, deadlineMs, windowSec float64) OverloadRow {
	var t tally
	svc := res.ServiceLatencies(true, 0)
	rejected := 0
	for r := range res.Ops {
		if res.Rejected[r] {
			rejected++
			continue
		}
		t.addTimed(svc[r], deadlineMs, res.Class[r].Kind, requestAccuracy(res, r, works, levelAcc))
	}
	return overloadRow("Frontend+AT", res, &t, windowSec, rejected)
}

// requestAccuracy is the model estimate of one answered frontend
// request's delivered accuracy: 1 for Exact-class requests (full
// scans), otherwise the ladder level's synopsis accuracy plus the
// ranked-set improvement averaged over components. levelAcc holds the
// per-level synopsis accuracy, coarse to fine (calibrated from real
// replays for the aggregation workload, modeled for the search-shaped
// overload sweep); works follows cluster.Config.Work's length contract
// (one per component, or a single shared model).
func requestAccuracy(res *cluster.Result, r int, works []cluster.WorkModel, levelAcc []float64) float64 {
	if res.Class[r].Kind == frontend.Exact {
		return 1
	}
	la := levelAcc[0]
	if lv := res.Level[r]; lv >= 0 && lv < len(levelAcc) {
		la = levelAcc[lv]
	}
	sum := 0.0
	for c, op := range res.Ops[r] {
		frac := float64(op.SetsProcessed) / float64(works[c%len(works)].NumGroups)
		sum += la + (1-la)*frac
	}
	return sum / float64(len(res.Ops[r]))
}

// Render formats the sweep as a paper-style text table.
func (s *OverloadSweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload sweep: offered load vs goodput / p99.9 / delivered accuracy\n")
	fmt.Fprintf(&b, "(saturation %.1f req/s exact; deadline %.0f ms; goodput = answered <= %.1fx deadline with accuracy >= %.2f;\n",
		s.SaturationRate, s.DeadlineMs, goodLatencyFactor, goodAccuracyFloor)
	fmt.Fprintf(&b, " class mix %s; window %.0fs)\n\n", overloadClassMixLabel, s.WindowSeconds)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "offered %.2fx saturation (%.1f req/s)\n", p.Multiplier, p.RatePerSec)
		fmt.Fprintf(&b, "  %-16s %12s %12s %9s %10s %14s %12s\n",
			"technique", "goodput/s", "p99.9 (ms)", "shed %", "acc Exact", "acc Bounded.90", "acc BestEff")
		for _, row := range p.Rows {
			fmt.Fprintf(&b, "  %-16s %12.1f %12.1f %9.1f %10.3f %14.3f %12.3f\n",
				row.Name, row.GoodputPerSec, row.P999Ms, row.RejectedPct,
				row.ClassAccuracy[frontend.Exact],
				row.ClassAccuracy[frontend.Bounded],
				row.ClassAccuracy[frontend.BestEffort])
		}
		b.WriteString("\n")
	}
	return b.String()
}
