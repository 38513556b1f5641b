// Aggregation: the third application workload — BlinkDB-style
// approximate GROUP-BY aggregation (internal/agg) — end to end on the
// live goroutine runtime behind the accuracy-aware frontend.
//
// Offline, each shard's fact table becomes a ladder of stratified
// samples; the per-level accuracy is then *calibrated* by replaying
// sample queries against exact answers, and those measured accuracies
// parametrize the degradation controller — so a Bounded{0.90} SLO
// floor refers to this workload's real error metric (1 − mean relative
// error), not a guess.
//
// Online, an open-loop Poisson client drives SUM/COUNT/AVG queries with
// a mixed SLO-class population through admission → routing →
// degradation. Handlers read the frontend-selected ladder level from
// their context, answer from that level's samples via Algorithm 1, and
// bypass the synopsis entirely for Exact-class requests. The report
// shows the measured per-class latency and delivered accuracy at a calm
// and at an overloaded arrival rate.
//
// Run with: go run ./examples/aggregation
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	at "accuracytrader"
	"accuracytrader/internal/agg"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/workload"
)

const (
	shards      = 6
	keys        = 24
	rowsPer     = 1500
	deadline    = 40 * time.Millisecond
	runFor      = 2 * time.Second
	perRowCost  = 4 * time.Microsecond // modeled scan cost per fact row
	calibration = 40                   // queries per level for calibration
	imaxFrac    = 0.4                  // improve at most this fraction of ranked strata (imax)
)

// classOf is the 10% Exact / 30% Bounded{0.90} / 60% BestEffort mix
// the benchmark's agg workloads offer.
func classOf(r int) at.SLO {
	switch r % 10 {
	case 0:
		return at.ExactSLO()
	case 1, 2, 3:
		return at.BoundedSLO(0.9)
	default:
		return at.BestEffortSLO()
	}
}

func main() {
	fcfg := workload.DefaultFactsConfig()
	fcfg.RowsPerSubset = rowsPer
	fcfg.Keys = keys
	fcfg.Seed = 17
	data := workload.GenerateFacts(fcfg, shards)

	fmt.Printf("building %d aggregation components (%d rows each)...\n", shards, rowsPer)
	comps := make([]*at.AggComponent, shards)
	for s := range comps {
		comp, err := at.BuildAggComponent(data.Subsets[s], at.AggConfig{
			Rates:     []float64{0.03, 0.08, 0.18, 0.40},
			MinSample: 8,
			Seed:      17,
		})
		if err != nil {
			log.Fatal(err)
		}
		comps[s] = comp
	}
	levels := comps[0].Syn.Levels()

	// Calibrate: measured synopsis-only accuracy per ladder level.
	calQueries := data.SampleAggQueries(23, calibration)
	levelAcc := make([]float64, levels)
	for l := range levelAcc {
		levelAcc[l] = at.MeasureAggLevelAccuracy(comps, calQueries, l)
	}
	fmt.Printf("calibrated level accuracy (coarse->fine): ")
	for _, a := range levelAcc {
		fmt.Printf("%.3f ", a)
	}
	fmt.Println()

	queries := data.SampleAggQueries(29, 64)
	// Exact merged answers, once per distinct query.
	exactEst := make([][]float64, len(queries))
	for i, q := range queries {
		merged := at.ExactAggResult(comps[0], q)
		for _, c := range comps[1:] {
			merged.Merge(at.ExactAggResult(c, q))
		}
		exactEst[i] = merged.Estimates(q.Op)
	}

	for _, rate := range []float64{50, 600} {
		fullScan := time.Duration(rowsPer) * perRowCost
		fmt.Printf("\n=== offered %.0f req/s (exact scan %v => utilisation %.2f) ===\n",
			rate, fullScan, rate*fullScan.Seconds())
		run(rate, comps, levelAcc, queries, exactEst)
	}
}

// paidEngine charges each improvement step the modeled cost of the rows
// it reads: the rest of the stratum past its sample. Charges are slept
// once a millisecond is owed, and each sleep's overshoot is credited
// against the next, so timer granularity does not inflate a run of
// small strata.
type paidEngine struct {
	*agg.Engine
	debt time.Duration
}

func (e *paidEngine) ProcessSet(g int) {
	e.debt += time.Duration(e.GroupSize(g)) * perRowCost
	if e.debt >= time.Millisecond {
		t0 := time.Now()
		time.Sleep(e.debt)
		e.debt -= time.Since(t0)
	}
	e.Engine.ProcessSet(g)
}

// handler answers one sub-operation on one shard: an exact scan for
// Exact-class requests, otherwise Algorithm 1 from the
// frontend-selected ladder level, improving at most imax strata within
// the remaining deadline. The modeled per-row scan cost — of the
// sample, then of each stratum improved — makes queueing real on a
// laptop-sized shard, as in the other examples.
func handler(comp *at.AggComponent) at.Handler {
	imax := int(imaxFrac * float64(comp.Syn.NumStrata()))
	return func(ctx context.Context, payload interface{}) (interface{}, error) {
		q := payload.(at.AggQuery)
		if slo, ok := at.SLOFrom(ctx); ok && slo.Kind == at.ExactSLO().Kind {
			time.Sleep(time.Duration(comp.T.NumRows()) * perRowCost)
			return at.ExactAggResult(comp, q), nil
		}
		level := comp.Syn.Levels() - 1
		if lv, ok := at.LevelFrom(ctx); ok {
			level = lv
		}
		e := at.GetAggEngine(comp, q, level)
		scan := time.Duration(comp.Syn.SampleUnits(e.Level)) * perRowCost
		time.Sleep(scan)
		at.RunWithDeadline(&paidEngine{Engine: e}, deadline-scan, imax)
		res := e.TakeResult()
		e.Release()
		return res, nil
	}
}

func run(rate float64, comps []*at.AggComponent, levelAcc []float64, queries []at.AggQuery, exactEst [][]float64) {
	handlers := make([]at.Handler, len(comps))
	for i := range handlers {
		handlers[i] = handler(comps[i])
	}
	cl, err := at.NewCluster(handlers, at.WaitAll, at.ClusterOptions{
		Deadline: deadline,
		QueueLen: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := at.NewDegradationController(at.DegradationConfig{
		Levels:             len(levelAcc),
		LevelAccuracy:      levelAcc,
		InflightSaturation: 4 * len(comps),
	})
	if err != nil {
		log.Fatal(err)
	}
	fe, err := at.NewFrontend(cl, at.FrontendOptions{
		Replicas: 2,
		Router:   at.NewLeastLoaded(),
		Admission: []at.AdmissionPolicy{
			at.NewMaxInflight(4 * len(comps)),
			at.NewQueueWatermark(0.25, 0.85),
		},
		Controller: ctrl,
	})
	if err != nil {
		log.Fatal(err)
	}

	type classStats struct {
		lat   *stats.LatencyRecorder
		acc   stats.Summary
		level int
		count int
	}
	var mu sync.Mutex
	perClass := map[string]*classStats{}
	unavail := map[string]int{} // per class: the degrade rule's typed refusals
	arrivals := workload.PoissonArrivals(stats.NewRNG(uint64(rate)), rate, runFor.Seconds()*1000)
	netsvc.OpenLoop(arrivals, func(req int, intended time.Time) {
		qi := req % len(queries)
		q := queries[qi]
		res, err := fe.Call(context.Background(), q, classOf(req))
		if err != nil {
			if errors.As(err, new(*at.FrontendUnavailable)) {
				mu.Lock()
				unavail[res.SLO.String()]++
				mu.Unlock()
			}
			return // rejections are counted by frontend stats
		}
		if res.Answered == 0 {
			return // nothing answered within the deadline
		}
		d := float64(time.Since(intended)) / float64(time.Millisecond)
		// Compose: merge the per-shard partial results.
		var merged at.AggResult
		for _, sub := range res.Sub {
			if !sub.Answered() {
				continue
			}
			if part := sub.Value.(at.AggResult); merged.Sum == nil {
				merged = part
			} else {
				merged.Merge(part)
			}
		}
		acc := at.AggAccuracy(merged.Estimates(q.Op), exactEst[qi])
		mu.Lock()
		cs := perClass[res.SLO.String()]
		if cs == nil {
			cs = &classStats{lat: stats.NewLatencyRecorder(256)}
			perClass[res.SLO.String()] = cs
		}
		cs.lat.Record(d)
		cs.acc.Add(acc)
		cs.level += res.Level
		cs.count++
		mu.Unlock()
	})
	st := fe.Stats()
	fmt.Printf("admitted %d  degraded %d  rejected %d  (smoothed load %.2f)\n",
		st.Admitted, st.Degraded, st.Rejected, ctrl.Load())
	mu.Lock()
	for _, name := range []string{"Exact", "Bounded{0.90}", "BestEffort"} {
		fmt.Printf("%-14s unavailable %4d", name, unavail[name])
		if cs := perClass[name]; cs != nil {
			fmt.Printf("   calls %5d   p50 %6.1fms   p99 %6.1fms   accuracy %.3f   mean level %.1f",
				cs.count, cs.lat.Percentile(50), cs.lat.Percentile(99),
				cs.acc.Mean(), float64(cs.level)/float64(cs.count))
		}
		fmt.Println()
	}
	mu.Unlock()
	cl.Close()
}
