package main

import (
	"context"
	"fmt"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
	wl "accuracytrader/internal/workload"
)

// The open-loop workload keeps the shape of the netcompare experiment:
// modelled scan costs, one rotating server stalled for one request in
// 23, and a service deadline the stall dwarfs.
const (
	stragQueries = 256
	// stragDataSeed generates the fact table and query pool for every
	// run: this workload is a feedback loop (hedge estimator ->
	// controller load -> ladder level -> service time) that amplifies
	// small calibration differences, so data that changed with the seed
	// would swamp the policy effects it exists to measure. The seed
	// drives the arrival schedule and the query order.
	stragDataSeed  = 0x57a6
	stragRows      = 4000                  // rows per shard
	stragExactScan = 6 * time.Millisecond  // modelled exact scan of one shard (finest synopsis: 2.4 ms)
	stragDeadline  = 50 * time.Millisecond // service deadline: the gather gives up, so a stall cannot wedge the generator
	stragBudget    = 40 * time.Millisecond // per-request budget the client stamps (0.8 x deadline)
	stragStall     = 100 * time.Millisecond
	stragStallInv  = 23                    // 1 request in 23 stalls one server
	stragIMaxFrac  = 0.1                   // Algorithm 1 improves at most this share of strata
	stragLateAfter = 55 * time.Millisecond // an answer later than 1.1 x deadline is not ok
	stragHedgeMin  = 2 * time.Millisecond  // hedge delay until the p95 estimator has warmed up
)

// stalls reports whether the parent request seq stalls this server:
// keyed by request and executing server, never the subset, so a hedged
// replica sent elsewhere escapes it.
func stalls(seq uint64, server int) bool {
	return seq%stragStallInv == 0 && int(seq/stragStallInv)%components == server
}

// aggStraggler: the paper's scenario, at a fixed offered rate.
func aggStraggler() *workload {
	return &workload{
		name: "agg-straggler",
		why: "the slowest of 8 parts sets the latency: the only workload where hedging, partial gather, the " +
			"degradation controller and Algorithm 1's budget cut decide tail, ok_frac and accuracy together",
		opsPerSecond: 120,
		open:         true,
		setup:        setupStraggler,
	}
}

func setupStraggler(seed uint64, tr *tracer, _ bool) (*instance, error) {
	in := &instance{hasFrontend: true}
	t0 := time.Now()
	fcfg := wl.DefaultFactsConfig()
	fcfg.RowsPerSubset = stragRows
	fcfg.Seed = stragDataSeed
	data := wl.GenerateFacts(fcfg, components)
	queries := data.SampleAggQueries(stragDataSeed^0x0e7, stragQueries)
	in.timing.gen = time.Since(t0)

	t0 = time.Now()
	comps := make([]*agg.Component, components)
	for s, tab := range data.Subsets {
		c, err := agg.BuildComponent(tab, aggConfig(stragDataSeed))
		if err != nil {
			return nil, err
		}
		comps[s] = c
	}
	levels := comps[0].Syn.Levels()
	levelAcc := make([]float64, levels)
	for l := range levelAcc {
		levelAcc[l] = agg.MeasureLevelAccuracy(comps, queries[:aggCalibration], l)
	}
	in.timing.aggBuild = time.Since(t0)

	unitCost := stragExactScan / stragRows
	var fe *frontend.Frontend
	t0 = time.Now()
	r, err := startRig(rigSpec{
		handler: func(server int) netsvc.Handler {
			return netsvc.NewAggBackend(comps, netsvc.BackendOptions{
				UnitCost: unitCost,
				IMaxFrac: stragIMaxFrac,
				Interfere: func(seq uint64) time.Duration {
					if stalls(seq, server) {
						return stragStall
					}
					return 0
				},
			})
		},
		serverOpts: netsvc.ServerOptions{Workers: 1, QueueLen: 512},
		aggOpts: netsvc.AggregatorOptions{
			Policy: service.Hedged, Deadline: stragDeadline,
			// Warm-start hedging just below the typical finest-synopsis
			// service time; the P² estimator takes over as it converges.
			HedgeFloor: stragHedgeMin, MaxOutstanding: 64,
		},
		front: func(r *rig) (*netsvc.FrontServer, error) {
			ctrl, err := newController(levelAcc)
			if err != nil {
				return nil, err
			}
			fe, err = frontend.New(tr.wrapBackend(r.agg), frontendOptions(ctrl))
			if err != nil {
				return nil, err
			}
			return netsvc.NewFrontServer(r.agg, fe, netsvc.ServerOptions{Workers: 64}), nil
		},
	}, tr)
	if err != nil {
		return nil, err
	}
	in.rig = r
	in.timing.ready = time.Since(t0)

	reqs := make([][3]*wire.Request, len(queries))
	for i, q := range queries {
		for class := range reqs[i] {
			reqs[i][class] = aggRequest(q, uint8(class))
		}
	}
	in.request = func(o op) *wire.Request { return reqs[o.query][o.class] }
	in.ops = func(n int) []op {
		// Uniform query draw: nothing is cached here, the pool only
		// varies the filter windows.
		return opSequence(seed, n, stragQueries, 0, opMix{})
	}

	// Realized accuracy is scored against exact merged answers computed
	// up front by a plain scan of every shard.
	exact := make([][]float64, len(queries))
	in.prepare = func() error {
		nKeys := fcfg.Keys
		for i, q := range queries {
			t := aggTruth{q: q, sum: make([]float64, nKeys), cnt: make([]float64, nKeys)}
			for _, tab := range data.Subsets {
				for row := 0; row < tab.NumRows(); row++ {
					t.fold(tab.Key(row), tab.Value(row))
				}
			}
			exact[i] = t.result().Estimates(q.Op)
		}
		return nil
	}
	in.exec = func(ctx context.Context, _ int, o op, sent time.Time, out *opResult) {
		out.read, out.level = true, -1
		req := *reqs[o.query][o.class]
		// The request carries its own absolute budget, measured from the
		// intended send: queueing anywhere on the path eats it. Exact
		// requests carry none — their guarantee is paid in latency.
		if o.class != classExact {
			req.Deadline = sent.Add(stragBudget).UnixNano()
		}
		rep, err := r.client.Call(ctx, &req)
		late := time.Since(sent) > stragLateAfter && o.class != classExact
		if err != nil {
			out.violation = "call: " + err.Error()
			return
		}
		out.id, out.degraded, out.level = rep.ID, rep.Degraded, int(rep.Level)
		if !wire.ReplyCarriesPayload(rep.Status) || rep.Agg == nil {
			// A budget that ran out before service is the service's own
			// verdict (a miss); any other error reply is a failure.
			expired := req.Deadline != 0 && time.Now().UnixNano() > req.Deadline
			if rep.Status == wire.ReplyErr && !expired {
				out.violation = "reply error: " + rep.Err
			}
			return
		}
		out.answered = true
		if len(rep.Agg.Sum) != len(exact[o.query]) {
			return // degraded to nothing: every stratum missed the budget (accuracy 0)
		}
		out.accuracy = agg.Accuracy(netsvc.AggResultOf(rep.Agg).Estimates(agg.Op(req.Agg.Op)), exact[o.query])
		if o.class == classExact && out.accuracy < 1-1e-9 {
			out.violation = fmt.Sprintf("exact reply has accuracy %.6f", out.accuracy)
			return
		}
		out.ok = !late
	}
	in.layerCounts = func(m map[string]float64, c counts) {
		m["frontend.rejected_frac"] = ratio(float64(fe.Stats().Rejected), float64(c.reads))
	}
	in.probes = func(tr *tracer, m map[string]float64) {
		probeAggEngines(m, comps[0], queries)
		probeFrontend(m, levelAcc, reqs[0][classBestEffort])
	}
	return in, nil
}
