package experiments

import (
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/wire"
)

// What the wall-clock serving experiments (the *compare family over
// internal/service and internal/netsvc) share: the request template,
// the accuracy references, the calibrated ladder, the standard frontend
// and the per-row tally. The loopback deployment itself is
// netsvc.StartLoopback and the load generator netsvc.OpenLoop.

// aggRequest builds the whole-service wire request of one aggregation
// query, unclassed and unlevelled; callers stamp SLO, budget and tenant.
func aggRequest(q agg.Query) *wire.Request {
	return &wire.Request{
		Kind: wire.KindAgg, Subset: -1, SLO: wire.SLONone, Level: wire.NoLevel,
		Agg: &wire.AggRequest{Op: uint8(q.Op), Lo: q.Lo, Hi: q.Hi},
	}
}

// exactEstimates precomputes each query's exact merged estimates — the
// reference every measured-accuracy column scores against.
func exactEstimates(comps []*agg.Component, queries []agg.Query) [][]float64 {
	nKeys := comps[0].T.NumKeys()
	out := make([][]float64, len(queries))
	exact := agg.NewResult(nKeys)
	var scratch agg.Result
	for qi, q := range queries {
		exact = exact.Reset(nKeys)
		for _, c := range comps {
			scratch = agg.ExactResultInto(scratch, c, q)
			exact.Merge(scratch)
		}
		out[qi] = exact.Estimates(q.Op)
	}
	return out
}

// LadderAccuracy measures the synopsis-only accuracy of every ladder
// level, coarse to fine, over a query sample: the calibration table of
// the frontend controller.
func LadderAccuracy(comps []*agg.Component, queries []agg.Query) []float64 {
	acc := make([]float64, comps[0].Syn.Levels())
	for l := range acc {
		acc[l] = agg.MeasureLevelAccuracy(comps, queries, l)
	}
	return acc
}

// StageAggLive loads a frozen fact table into a live (epoch-swapped)
// store and compacts it, so the live shard starts from exactly the base
// synopsis an offline build of the same rows produces.
func StageAggLive(tab *agg.Table, cfg agg.Config) (*ingest.AggLive, error) {
	keys := make([]int32, tab.NumRows())
	vals := make([]float64, tab.NumRows())
	for r := range keys {
		keys[r], vals[r] = tab.Key(r), tab.Value(r)
	}
	l := ingest.NewAggLive(tab.NumKeys(), cfg)
	if _, err := l.Append(keys, vals); err != nil {
		return nil, err
	}
	if _, _, _, err := l.Compact(); err != nil {
		return nil, err
	}
	return l, nil
}

// finestSaturationRate is the request rate (per second) at which one
// component saturates answering from its finest synopsis alone, at the
// modeled per-row scan cost: the unit the serving experiments state
// their offered load in.
func finestSaturationRate(comps []*agg.Component, unitMs float64) float64 {
	finest := comps[0].Syn.Levels() - 1
	units := 0.0
	for _, c := range comps {
		units += float64(c.Syn.SampleUnits(finest))
	}
	return 1000 / (units / float64(len(comps)) * unitMs)
}

// gatherAll is the aggregator of the contract experiments: wait for every
// component, with a deadline far beyond any healthy round trip.
var gatherAll = netsvc.AggregatorOptions{Policy: service.WaitAll, Deadline: 2 * time.Second}

// calibratedFrontend is the frontend of the contract experiments: the
// degradation controller calibrated with levelAcc and nothing else — no
// admission policy, default routing — so every request is answered.
func calibratedFrontend(b frontend.Backend, levelAcc []float64) (*frontend.Frontend, error) {
	ctrl, err := frontend.NewController(frontend.ControllerConfig{Levels: len(levelAcc), LevelAccuracy: levelAcc})
	if err != nil {
		return nil, err
	}
	return frontend.New(b, frontend.Options{Controller: ctrl})
}

// StandardFrontend assembles the accuracy-aware pipeline every serving
// deployment here runs: 2 replicas, least-loaded routing, admission by
// an in-flight cap plus the 0.35/0.85 queue watermark, and a controller
// calibrated with levelAcc that saturates at the same in-flight count.
// opts carries what a deployment adds (cache, metrics registry); its
// routing, admission and controller fields are overwritten.
func StandardFrontend(b frontend.Backend, maxInflight int, levelAcc []float64, opts frontend.Options) (*frontend.Frontend, error) {
	ctrl, err := frontend.NewController(frontend.ControllerConfig{
		Levels:             len(levelAcc),
		LevelAccuracy:      levelAcc,
		InflightSaturation: maxInflight,
	})
	if err != nil {
		return nil, err
	}
	opts.Replicas = 2
	opts.Router = frontend.NewLeastLoaded()
	opts.Admission = []frontend.AdmissionPolicy{
		frontend.NewMaxInflight(maxInflight),
		frontend.NewQueueWatermark(0.35, 0.85),
	}
	opts.Controller = ctrl
	return frontend.New(b, opts)
}

// tally folds answered requests into the statistics every serving table
// reports: latency percentiles, mean and per-SLO-class delivered
// accuracy, and goodput.
type tally struct {
	latMs    []float64
	accSum   float64
	classAcc [3]float64 // indexed by frontend.SLOKind
	classCnt [3]int
	good     int
}

// add folds one answered request; good says whether it counts toward
// goodput.
func (t *tally) add(kind frontend.SLOKind, acc float64, good bool) {
	t.accSum += acc
	t.classAcc[kind] += acc
	t.classCnt[kind]++
	if good {
		t.good++
	}
}

// addTimed folds one answered request with a measured latency under the
// shared goodput rule: within goodLatencyFactor x the deadline at
// accuracy >= goodAccuracyFloor.
func (t *tally) addTimed(latMs, deadlineMs float64, kind frontend.SLOKind, acc float64) {
	t.latMs = append(t.latMs, latMs)
	t.add(kind, acc, latMs <= goodLatencyFactor*deadlineMs && acc >= goodAccuracyFloor)
}

// percentile returns the p-th latency percentile in ms.
func (t *tally) percentile(p float64) float64 { return stats.Percentile(t.latMs, p) }

// means returns goodput per second over the window, the mean delivered
// accuracy, and the per-class means (0 for a class nothing answered).
func (t *tally) means(windowSec float64) (goodput, meanAcc float64, classAcc [3]float64) {
	answered := 0
	for k, n := range t.classCnt {
		answered += n
		if n > 0 {
			classAcc[k] = t.classAcc[k] / float64(n)
		}
	}
	if answered > 0 {
		meanAcc = t.accSum / float64(answered)
	}
	return float64(t.good) / windowSec, meanAcc, classAcc
}
