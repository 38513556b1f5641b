// Caching: the accuracy-aware result cache (internal/rescache) end to
// end on the live runtime — the observation being exploited: with
// Zipf-skewed traffic from many users, most requests repeat, so the
// cheapest approximate answer is one that was already computed.
//
// The demo deploys the aggregation workload over loopback TCP —
// component servers, an aggregator, the accuracy-aware frontend, and a
// front server with the result cache ahead of admission — and shows,
// in phases:
//
//  1. Zipf traffic past the backend's saturation rate: the cache
//     absorbs the popular head, goodput recovers and the tail
//     collapses, while the cold-cache phase queues and sheds.
//  2. The accuracy-floor hit rule: the same cached entry serves
//     BestEffort and Bounded{0.90} requests but never a request whose
//     floor exceeds its recorded accuracy — Exact requests miss until
//     an exact answer has been stored.
//  3. Refresh-to-exact: a popular coarse entry is upgraded to the
//     exact answer by the low-priority background worker, so hits get
//     *more* accurate over time.
//  4. Epoch invalidation: a data update rebuilds the synopses and
//     bumps the cache epoch; stale entries are discarded lazily on
//     their next lookup and recomputed from the new data.
//
// Run with: go run ./examples/caching
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	at "accuracytrader"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/wire"
	"accuracytrader/internal/workload"
)

const (
	shards     = 4
	keys       = 16
	rowsPer    = 1500
	deadline   = 50 * time.Millisecond
	perRowCost = 6 * time.Microsecond // modeled scan cost per fact row
	numQueries = 80
	zipfSkew   = 1.1
	phaseFor   = 1500 * time.Millisecond
	queueLen   = 1024 // component queue and aggregator outstanding window
)

func classOf(r int) at.SLO {
	switch r % 10 {
	case 0, 1:
		return at.ExactSLO()
	case 2, 3, 4:
		return at.BoundedSLO(0.9)
	default:
		return at.BestEffortSLO()
	}
}

// buildComps generates the fact shards and their synopsis ladders.
func buildComps(seed uint64) ([]*at.AggComponent, *workload.FactsData) {
	fcfg := workload.DefaultFactsConfig()
	fcfg.RowsPerSubset = rowsPer
	fcfg.Keys = keys
	fcfg.Seed = seed
	data := workload.GenerateFacts(fcfg, shards)
	comps := make([]*at.AggComponent, shards)
	for i, tab := range data.Subsets {
		c, err := at.BuildAggComponent(tab, at.AggConfig{
			Rates: []float64{0.05, 0.12, 0.25, 0.45}, MinSample: 8, Seed: seed ^ 0xa9,
		})
		if err != nil {
			log.Fatal(err)
		}
		comps[i] = c
	}
	return comps, data
}

func main() {
	comps, data := buildComps(17)

	// Calibrate each ladder level's accuracy against exact answers and
	// sample the Zipf query population.
	queries := data.SampleAggQueries(99, numQueries)
	levels := comps[0].Syn.Levels()
	levelAcc := make([]float64, levels)
	for l := 0; l < levels; l++ {
		levelAcc[l] = at.MeasureAggLevelAccuracy(comps, queries[:32], l)
	}
	fmt.Printf("calibrated ladder accuracy (coarse->fine):")
	for _, a := range levelAcc {
		fmt.Printf(" %.3f", a)
	}
	fmt.Println()

	// The live stack over loopback sockets: one component server per
	// shard over the modeled-cost backend, an aggregator, the frontend,
	// and a front server with the result cache ahead of admission.
	backend := at.NewNetAggBackend(comps, at.NetBackendOptions{
		UnitCost: perRowCost, SubBudget: 4 * deadline / 5, IMaxFrac: 0.4,
	})
	addrs := make([]string, shards)
	for s := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := at.NewNetComponentServer(backend, at.NetServerOptions{QueueLen: queueLen})
		go srv.Serve(l)
		defer srv.Close()
		addrs[s] = l.Addr().String()
	}
	agr, err := at.NewNetAggregator(addrs, at.NetAggregatorOptions{
		Policy: at.WaitAll, Deadline: 6 * deadline, MaxOutstanding: queueLen,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer agr.Close()

	cache, err := at.NewResultCache(at.ResultCacheConfig{
		Capacity:        48,
		BestEffortFloor: 0.6,
		RefreshBelow:    0.99,
		RefreshInterval: 5 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cache.Close()
	ctrl, err := at.NewDegradationController(at.DegradationConfig{
		Levels: levels, LevelAccuracy: levelAcc, InflightSaturation: 6 * shards,
	})
	if err != nil {
		log.Fatal(err)
	}
	fe, err := at.NewFrontend(agr, at.FrontendOptions{
		Replicas: 2,
		Admission: []at.AdmissionPolicy{
			at.NewMaxInflight(6 * shards),
			at.NewQueueWatermark(0.35, 0.85),
		},
		Controller: ctrl,
	})
	if err != nil {
		log.Fatal(err)
	}
	fs := at.NewNetFrontServer(agr, fe, at.NetServerOptions{})
	if err := fs.EnableCache(cache); err != nil {
		log.Fatal(err)
	}
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go fs.Serve(fl)
	defer fs.Close()
	cl, err := at.DialNetClient(fl.Addr().String(), at.NetClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// One template per query; the front server keys the cache on the
	// request's canonical encoding, so every arrival of a query shares
	// its entry whatever its class.
	templates := make([]*at.WireRequest, len(queries))
	for i, q := range queries {
		templates[i] = &at.WireRequest{
			Kind: at.WireKindAgg, Subset: -1, Level: -1,
			Agg: &at.WireAggRequest{Op: uint8(q.Op), Lo: q.Lo, Hi: q.Hi},
		}
	}
	call := func(tmpl *at.WireRequest, slo at.SLO) *at.WireReply {
		req := *tmpl
		req.SLO, req.MinAccuracy = uint8(slo.Kind), slo.MinAccuracy
		rep, err := cl.Call(context.Background(), &req)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	// Phase 1 — Zipf load past saturation. ~139/s is this backend's
	// capacity (7.2ms modeled work per request); offer 180/s.
	fmt.Println("\n-- phase 1: Zipf open-loop load, 180 req/s offered --")
	runLoad := func(label string) {
		arrivals := workload.PoissonArrivals(stats.NewRNG(7), 180, phaseFor.Seconds()*1000)
		zipf := stats.NewZipf(stats.NewRNG(5), len(queries), zipfSkew)
		qis := make([]int, len(arrivals))
		for i := range qis {
			qis[i] = zipf.Draw()
		}
		var mu sync.Mutex
		lats := []float64{}
		rejected, hits := 0, 0
		netsvc.OpenLoop(arrivals, func(r int, intended time.Time) {
			rep := call(templates[qis[r]], classOf(r))
			lat := float64(time.Since(intended)) / float64(time.Millisecond)
			mu.Lock()
			defer mu.Unlock()
			if rep.Status == wire.ReplyRejected {
				rejected++
				return
			}
			if rep.Cached {
				hits++
			}
			lats = append(lats, lat)
		})
		hitPct := 100 * float64(hits) / float64(len(lats)+rejected)
		fmt.Printf("  %-12s answered %4d  shed %3d  hit%% %5.1f  p50 %6.1fms  p99 %6.1fms\n",
			label, len(lats), rejected, hitPct, stats.Percentile(lats, 50), stats.Percentile(lats, 99))
	}
	runLoad("cold cache")
	runLoad("warm cache")

	// Phase 2 — the accuracy-floor hit rule, on a query the Zipf load
	// (and hence the refresh worker) has not touched.
	fmt.Println("\n-- phase 2: the hit rule `cached accuracy >= request floor` --")
	tmpl := templates[len(templates)-1]
	show := func(slo at.SLO, note string) {
		rep := call(tmpl, slo)
		fmt.Printf("  %-14s -> cached=%-5v level %d   (%s)\n", slo, rep.Cached, rep.Level, note)
	}
	show(at.BestEffortSLO(), "cold: computed at the finest level, entry stored")
	show(at.BoundedSLO(0.95), "floor 0.95 > recorded accuracy: recomputes, no hit")
	show(at.ExactSLO(), "floor 1: recomputes exactly, entry upgraded to accuracy 1")
	show(at.ExactSLO(), "the exact answer now serves even Exact requests")
	show(at.BoundedSLO(0.95), "and every lower floor too")

	// Phase 3 — refresh-to-exact upgrades a popular coarse entry: keep
	// hitting it until a hit carries the exact answer.
	fmt.Println("\n-- phase 3: background refresh-to-exact --")
	tmpl2 := templates[1]
	q := queries[1]
	exact := at.ExactAggResult(comps[0], q)
	for _, c := range comps[1:] {
		exact.Merge(at.ExactAggResult(c, q))
	}
	isExact := func(rep *at.WireReply) bool {
		got := at.NetAggResultOf(rep.Agg)
		for k := range exact.Sum {
			if got.Sum[k] != exact.Sum[k] || got.Cnt[k] != exact.Cnt[k] {
				return false
			}
		}
		return true
	}
	call(tmpl2, at.BestEffortSLO())
	refined := false
	for i := 0; i < 400 && !refined; i++ {
		if rep := call(tmpl2, at.BestEffortSLO()); rep.Cached && isExact(rep) {
			fmt.Printf("  entry refined to exact after %d hits (refreshes so far: %d)\n",
				i+1, cache.Stats().Refreshes)
			refined = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !refined {
		fmt.Println("  (refresh worker did not get to this entry in time)")
	}

	// Phase 4 — a data update invalidates via the epoch. Close stops
	// the background refresh worker and waits it out, so swapping the
	// components underneath the handlers is race-free (lookups and
	// stores keep working without the worker).
	fmt.Println("\n-- phase 4: synopsis update -> epoch bump -> lazy invalidation --")
	cache.Close()
	fresh, _ := buildComps(18) // updated data, rebuilt ladders
	copy(comps, fresh)         // handlers see the new components
	cache.BumpEpoch()
	rep := call(tmpl, at.BestEffortSLO())
	st := cache.Stats()
	fmt.Printf("  after update: cached=%v (recomputed from new data), stale discards %d\n",
		rep.Cached, st.Stale)
	fmt.Printf("\ncache stats: %+v\n", st)
}
