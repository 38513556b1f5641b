package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/service"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/wire"
	"accuracytrader/internal/workload"
)

// The cachecompare experiment (result-cache extension, not a paper
// figure) evaluates internal/rescache on the aggregation workload over
// a loopback front tier (component servers, aggregator, frontend and
// netsvc.FrontServer): an open-loop load whose query popularity is
// Zipf-distributed — the production shape in which most requests
// repeat — drives the front server once without and once with the
// accuracy-tagged result cache, at several skew exponents, offered
// above the no-cache saturation rate. Reported per row: cache hit
// rate, goodput, p50/p99.9 call latency, shed fraction, measured
// per-class delivered accuracy, Bounded-floor violations among hits
// (must be zero — the cache-hit rule is `cached accuracy >= request
// floor`), and coalescing/refresh counters. A separate deterministic
// phase fires N concurrent identical requests at a cold cache and
// counts component fan-outs (must be one: singleflight coalescing).
const (
	// ccDeadlineMs is the service deadline the goodput criterion uses.
	ccDeadlineMs = 50.0
	// ccRateFrac is the offered rate as a fraction of one component's
	// finest-synopsis saturation rate. The real per-request cost is the
	// class mix's: Exact's full scans beside approximate answers of
	// synopsis + capped improvement (ccIMaxFrac), so this offered rate
	// sits *above* the no-cache service capacity — the no-cache rows
	// queue persistently — while a warm cache at skew >= 1 absorbs
	// enough repeats to bring the backend back below saturation.
	ccRateFrac = 1.0
	// ccWindowFrac is the window per row as a fraction of
	// Scale.SessionSeconds.
	ccWindowFrac = 0.25
	// ccWarmupFrac is the leading fraction of each row's window whose
	// requests run but are not recorded: both configurations pay the
	// same cold start (empty queues, cold cache), and the reported
	// numbers are steady-state.
	ccWarmupFrac = 0.25
	// ccArrivalSalt seeds the arrival schedule; as netArrivalSalt, chosen
	// so the default-seed draw (whole window and past the warm-up cut)
	// lands within 4% of rate x window at both scales.
	ccArrivalSalt = 0x9e83
	// ccIMaxFrac caps Algorithm 1 improvement at the top fraction of
	// ranked strata (the paper's imax), keeping approximate answers
	// genuinely approximate so the accuracy ladder has texture.
	ccIMaxFrac = 0.4
	// ccQuerySupport is the distinct-query population size; the Zipf
	// skew decides how concentrated traffic is on its head.
	ccQuerySupport = 160
	// ccCacheCapacity bounds the cache well below the query support, so
	// the hit rate is a genuine function of skew (an oversized cache
	// would hit ~always after warmup at any skew).
	ccCacheCapacity = 48
	// ccCallTimeoutMs bounds WaitAll calls so overload queueing cannot
	// wedge the load generator.
	ccCallTimeoutMs = 400.0
	// ccQueueLen is each component server's queue bound and the
	// aggregator's per-component outstanding window — the QueueCap the
	// frontend's queue watermark is measured against.
	ccQueueLen = 1024
	// ccSubBudgetFrac is the component-side l_spe as a fraction of the
	// deadline.
	ccSubBudgetFrac = 0.8
	// ccCoalesceFanIn is the concurrent identical request count of the
	// coalescing check.
	ccCoalesceFanIn = 24
)

// ccSkews are the Zipf exponents swept, low to high.
var ccSkews = []float64{0.4, 1.0, 1.4}

// CacheRow is one measured configuration at one skew; its loadRow counts
// the arrivals past the warm-up cut, equal for both rows of a skew.
type CacheRow struct {
	Skew   float64
	Cached bool
	loadRow
	HitPct float64
	// FloorViolations counts cache hits that break their class's
	// promise: a Bounded request served from a ladder level calibrated
	// below its floor, or an Exact one served inexact. The hit rule makes
	// this impossible; the experiment proves it.
	FloorViolations int
	Coalesced       int64
	Refreshes       int64
}

// CacheCompare is the full experiment result.
type CacheCompare struct {
	contracts
	Servers       int
	DeadlineMs    float64
	RatePerSec    float64 // nominal offered rate
	WindowSeconds float64
	// Arrivals is the realised arrival count of every row over the whole
	// window (warm-up included).
	Arrivals      int
	QuerySupport  int
	CacheCapacity int
	LevelAccuracy []float64
	Rows          []*CacheRow

	// arrivalsMs is the one Poisson arrival schedule every row is
	// offered, a pure function of the seed.
	arrivalsMs []float64
}

// RunCacheCompare measures the result cache against the no-cache
// frontend across Zipf skews.
func RunCacheCompare(sc Scale) (*CacheCompare, error) {
	f, err := aggFixture(sc, 0xca4e, ccQuerySupport)
	if err != nil {
		return nil, err
	}
	n := len(f.Comps)
	cc := &CacheCompare{
		Servers:       n,
		DeadlineMs:    ccDeadlineMs,
		RatePerSec:    ccRateFrac * finestSaturationRate(f.Comps, f.unitMs),
		WindowSeconds: sc.SessionSeconds * ccWindowFrac,
		QuerySupport:  len(f.queries),
		CacheCapacity: ccCacheCapacity,
		LevelAccuracy: f.levelAcc,
	}
	cc.arrivalsMs = workload.PoissonArrivals(stats.NewRNG(sc.Seed^ccArrivalSalt), cc.RatePerSec, cc.WindowSeconds*1000)
	cc.Arrivals = len(cc.arrivalsMs)

	// Every row deploys this stack (the standard frontend over a WaitAll
	// aggregator, ccQueueLen deep) behind its own front server.
	deploy := deployment{
		n: n,
		handler: shared(netsvc.NewAggBackend(f.Comps, netsvc.BackendOptions{
			UnitCost:  msDur(f.unitMs),
			SubBudget: msDur(ccSubBudgetFrac * ccDeadlineMs),
			IMaxFrac:  ccIMaxFrac,
		})),
		server:   netsvc.ServerOptions{Workers: 1, QueueLen: ccQueueLen},
		agg:      &netsvc.AggregatorOptions{Policy: service.WaitAll, Deadline: msDur(ccCallTimeoutMs), MaxOutstanding: ccQueueLen},
		levelAcc: f.levelAcc,
		inflight: 6 * n,
	}

	// Every row is offered the one arrival schedule; the request→query
	// schedule is drawn per skew and shared by its cached and uncached
	// rows, so paired rows face identical traffic at identical instants.
	floorViol := 0
	for si, skew := range ccSkews {
		zipf := stats.NewZipf(stats.NewRNG(sc.Seed^(0x51b0+uint64(si))), len(f.queries), skew)
		qis := make([]int, len(cc.arrivalsMs))
		for i := range qis {
			qis[i] = zipf.Draw()
		}
		for _, cached := range []bool{false, true} {
			row, err := cc.runRow(f, skew, cached, deploy, qis)
			if err != nil {
				return nil, err
			}
			cc.Rows = append(cc.Rows, row)
			floorViol += row.FloorViolations
		}
	}
	cc.promise("cache floor", floorViol == 0,
		"%d cache hits served below a Bounded request's floor across %d rows, warm-up included (want 0)", floorViol, len(cc.Rows))
	if err := cc.runCoalesceCheck(deploy); err != nil {
		return nil, err
	}
	return cc, nil
}

// runRow measures one (skew, cached?) configuration of deploy; arrival
// r asks query qis[r].
func (cc *CacheCompare) runRow(f *aggFix, skew float64, cached bool, deploy deployment, qis []int) (*CacheRow, error) {
	var cache *rescache.Cache
	if cached {
		var err error
		cache, err = rescache.New(rescache.Config{
			Capacity:        ccCacheCapacity,
			BestEffortFloor: 0.6,
			RefreshBelow:    0.99,
			RefreshInterval: 10 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		defer cache.Close()
	}
	row := &CacheRow{Skew: skew, Cached: cached}
	warmupMs := ccWarmupFrac * cc.WindowSeconds * 1000
	deploy.front = &netsvc.ServerOptions{Cache: cache}
	st, err := deploy.start()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	lag, err := load{at: cc.arrivalsMs, request: f.asking(qis, func(r int, _ time.Time) stamp { return stamp{slo: overloadClassMix(r)} })}.
		run(st.target, func(r int, latMs float64, o outcome) error {
			// Hits are judged over the whole run — warm-up hits must honor
			// the floor too.
			if o.broken && o.rep.Cached {
				row.FloorViolations++
			}
			if cc.arrivalsMs[r] >= warmupMs { // the cut is on the intended time: the same arrivals in both rows
				row.count(r, latMs, ccDeadlineMs, o)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	row.close((1-ccWarmupFrac)*cc.WindowSeconds, lag)
	row.HitPct = pct(row.hits, row.Calls)
	if cache != nil {
		cst := cache.Stats()
		row.Coalesced, row.Refreshes = cst.Coalesced, cst.Refreshes
	}
	return row, nil
}

// runCoalesceCheck fires ccCoalesceFanIn concurrent identical requests at
// a cold cache behind an idle front server and counts component
// sub-operations: the singleflight must collapse them to one fan-out,
// the rest sharing it. It deploys as the rows do, over a gated handler
// and a call timeout no gate outlasts.
func (cc *CacheCompare) runCoalesceCheck(deploy deployment) error {
	n := deploy.n
	release := make(chan struct{})
	var subCalls atomic.Int64
	gated := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		// The winner's fan-out parks here until every call had time to
		// reach the flight: its last sub-operation to arrive lets the
		// computation finish 20 ms later (5 s at most, if one never does).
		if subCalls.Add(1) == int64(n) {
			time.AfterFunc(20*time.Millisecond, func() { close(release) })
		}
		select {
		case <-release:
		case <-time.After(5 * time.Second):
		}
		return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
			Agg: &wire.AggResult{Sum: make([]float64, 1), Cnt: make([]float64, 1),
				SumVar: make([]float64, 1), CntVar: make([]float64, 1)}}
	}
	// No refresh target: the background worker stays idle, so every
	// sub-operation counted belongs to the flight.
	cache, err := rescache.New(rescache.Config{Capacity: ccCacheCapacity, RefreshBelow: 1e-9})
	if err != nil {
		return err
	}
	defer cache.Close()
	aggOpts := *deploy.agg
	aggOpts.Deadline = 10 * time.Second
	deploy.handler, deploy.agg, deploy.front = shared(gated), &aggOpts, &netsvc.ServerOptions{Cache: cache}
	st, err := deploy.start()
	if err != nil {
		return err
	}
	defer st.Close()
	if _, err := (load{n: ccCoalesceFanIn, workers: ccCoalesceFanIn,
		request: asks(agg.Query{Op: agg.Sum, Lo: 0, Hi: 1}, wire.NoLevel, stamp{slo: frontend.BoundedSLO(0.5)})}).run(st.target, nil); err != nil {
		return fmt.Errorf("experiments: coalescing call: %w", err)
	}
	computes := int(subCalls.Load()) / n
	// Shared = flight joins plus hits on the freshly stored entry (a
	// call scheduled after the winner completed); both mean the request
	// was answered by the one computation.
	cst := cache.Stats()
	shared := cst.Coalesced + cst.Hits
	cc.promise("coalescing", computes == 1 && shared == int64(ccCoalesceFanIn-1),
		"%d concurrent identical misses -> %d backend fan-out(s), %d shared (want 1 and %d)",
		ccCoalesceFanIn, computes, shared, ccCoalesceFanIn-1)
	return nil
}

// Render formats the comparison as a paper-style text table.
func (cc *CacheCompare) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CACHECOMPARE: accuracy-aware result cache (internal/rescache) vs no-cache frontend\n")
	maxLag := 0.0
	for _, r := range cc.Rows {
		maxLag = math.Max(maxLag, r.MaxLagMs)
	}
	fmt.Fprintf(&b, "(aggregation workload, loopback front server, %d components; open-loop Poisson, nominal %.1f req/s — above the\n",
		cc.Servers, cc.RatePerSec)
	fmt.Fprintf(&b, " no-cache improvement-capped capacity — for %.1fs: the same %d scheduled arrivals offered to every row\n",
		cc.WindowSeconds, cc.Arrivals)
	fmt.Fprintf(&b, " (realised %.1f req/s), max send lag %.1f ms, first %.0f%% of the window discarded as warmup; %d distinct\n",
		float64(cc.Arrivals)/cc.WindowSeconds, maxLag, 100*ccWarmupFrac, cc.QuerySupport)
	fmt.Fprintf(&b, " queries, cache capacity %d; deadline %.0f ms;\n", cc.CacheCapacity, cc.DeadlineMs)
	fmt.Fprintf(&b, " goodput = answered <= %.1fx deadline with measured accuracy >= %.2f; class mix %s)\n\n",
		goodLatencyFactor, goodAccuracyFloor, overloadClassMixLabel)
	fmt.Fprintf(&b, "calibrated ladder accuracy (coarse->fine):")
	for _, a := range cc.LevelAccuracy {
		fmt.Fprintf(&b, " %.3f", a)
	}
	b.WriteString("\n")
	cc.renderContracts(&b)
	b.WriteString("\n")
	fmt.Fprintf(&b, "  %-5s %-8s %6s %7s %6s %10s %8s %8s %6s %8s %9s %10s %10s %9s %7s %8s\n",
		"skew", "config", "calls", "lag ms", "hit%", "goodput/s", "p50 ms", "p99.9", "shed%", "acc",
		"accExact", "accBounded", "accBestEff", "floorViol", "coal", "refresh")
	for _, r := range cc.Rows {
		cfg := "nocache"
		if r.Cached {
			cfg = "cache"
		}
		fmt.Fprintf(&b, "  %-5.1f %-8s %6d %7.1f %6.1f %10.1f %8.1f %8.1f %6.1f %8.3f %9.3f %10.3f %10.3f %9d %7d %8d\n",
			r.Skew, cfg, r.Calls, r.MaxLagMs, r.HitPct, r.Goodput, r.P50Ms, r.P999Ms, r.ShedPct, r.MeanAcc,
			r.ClassAcc[frontend.Exact], r.ClassAcc[frontend.Bounded], r.ClassAcc[frontend.BestEffort],
			r.FloorViolations, r.Coalesced, r.Refreshes)
	}
	b.WriteString("\nlag ms is the row's worst send lag behind the schedule (host scheduling noise), charged to latency.\n")
	b.WriteString("\nReading: past saturation the no-cache rows queue — p99.9 blows through the deadline and admission\n")
	b.WriteString("sheds — while cache hits (whose rate grows with skew) bypass admission and the fan-out entirely,\n")
	b.WriteString("relieving the backend so even misses queue less: p99.9 drops and goodput rises at skew >= 1.\n")
	b.WriteString("floorViol counts Bounded-class hits below their floor and must be 0: the hit rule is\n")
	b.WriteString("`cached accuracy >= request floor` with Bounded floors never loosened; under load only the\n")
	b.WriteString("BestEffort floor slackens, and the low-priority refresh worker upgrades popular coarse entries\n")
	b.WriteString("to exact as capacity allows (refresh column).\n")
	return b.String()
}
