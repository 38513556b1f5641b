package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
	wl "accuracytrader/internal/workload"
)

const (
	aggQueries     = 256   // distinct queries in the pool
	aggZipf        = 1.1   // query popularity skew
	aggBaseRows    = 20000 // rows per shard compacted before serving
	aggStreamRows  = 8192  // rows per shard the append batches cycle through
	aggBatchRows   = 64    // rows per append batch
	aggIngestEvery = 20    // every 20th op appends a batch
	aggSwapEvery   = 500   // every 500th op publishes the staged deltas
	aggCompact     = 5000  // every 5000th op compacts every shard
	aggRewarm      = 32    // hottest cache entries recomputed after a swap
	aggBoundedMin  = 0.90  // the Bounded class's accuracy floor
	aggAuditEvery  = 16    // audit one answered approximate request in 16
	aggCalibration = 32    // queries that calibrate the ladder's accuracy
)

// aggRates is the experiments' synopsis ladder: sampling rates coarse
// to fine, sized so the finest level clears the Bounded floor.
var aggRates = []float64{0.03, 0.08, 0.18, 0.40}

func aggConfig(seed uint64) agg.Config {
	return agg.Config{Rates: aggRates, MinSample: 8, Seed: seed ^ 0xa9}
}

// aggLiveMixed: cached aggregation reads beside the writes that
// invalidate them, every plane on.
func aggLiveMixed() *workload {
	return &workload{
		name: "agg-live-mixed",
		why: "cache hits that bypass admission and fan-out beside appends and epoch swaps that stale them, " +
			"with tracing, SLO, audit and cost planes on: the same layers used two ways",
		opsPerSecond: 2600,
		planes:       true,
		setup:        setupAggLive,
	}
}

// aggTruth is the harness's own exact answer of one query over the
// rows visible so far: a plain scan, no engine code.
type aggTruth struct {
	q        agg.Query
	sum, cnt []float64
}

func (t *aggTruth) fold(key int32, val float64) {
	if val >= t.q.Lo && val < t.q.Hi {
		t.sum[key] += val
		t.cnt[key]++
	}
}

// result views the truth as an engine result (estimates only: an
// exact answer has no variance to carry).
func (t *aggTruth) result() agg.Result { return agg.Result{Sum: t.sum, Cnt: t.cnt} }

// closeTo compares an exact reply with the truth: counts exactly, sums
// up to summation order.
func (t *aggTruth) closeTo(got *wire.AggResult) bool {
	if got == nil || len(got.Sum) != len(t.sum) || len(got.Cnt) != len(t.cnt) {
		return false
	}
	for k := range t.sum {
		if got.Cnt[k] != t.cnt[k] {
			return false
		}
		if math.Abs(got.Sum[k]-t.sum[k]) > 1e-9*math.Max(1, math.Abs(t.sum[k])) {
			return false
		}
	}
	return true
}

func aggRequest(q agg.Query, class uint8) *wire.Request {
	req := &wire.Request{
		Kind: wire.KindAgg, Subset: -1, SLO: class, Level: wire.NoLevel,
		Agg: &wire.AggRequest{Op: uint8(q.Op), Lo: q.Lo, Hi: q.Hi},
	}
	if class == classBounded {
		req.MinAccuracy = aggBoundedMin
	}
	return req
}

// newController is the agg workloads' degradation controller,
// calibrated with the measured per-level accuracies.
func newController(levelAcc []float64) (*frontend.Controller, error) {
	return frontend.NewController(frontend.ControllerConfig{
		Levels: len(levelAcc), LevelAccuracy: levelAcc, InflightSaturation: 3 * components,
	})
}

// frontendOptions is the agg workloads' frontend pipeline (the
// netcompare experiment's): 2 replicas, least-loaded routing, an
// in-flight cap and queue watermarks.
func frontendOptions(ctrl *frontend.Controller) frontend.Options {
	return frontend.Options{
		Replicas: 2,
		Router:   frontend.NewLeastLoaded(),
		Admission: []frontend.AdmissionPolicy{
			frontend.NewMaxInflight(3 * components),
			frontend.NewQueueWatermark(0.35, 0.85),
		},
		Controller: ctrl,
	}
}

// floorLevel is the coarsest ladder level the controller may serve a
// Bounded{min} request from.
func floorLevel(levelAcc []float64, min float64) int {
	for l, a := range levelAcc {
		if a >= min {
			return l
		}
	}
	return len(levelAcc) - 1
}

func setupAggLive(seed uint64, tr *tracer, planes bool) (*instance, error) {
	in := &instance{hasFrontend: true}
	t0 := time.Now()
	fcfg := wl.DefaultFactsConfig()
	fcfg.RowsPerSubset = aggBaseRows + aggStreamRows
	fcfg.Seed = seed
	data := wl.GenerateFacts(fcfg, components)
	queries := data.SampleAggQueries(seed^0xa66, aggQueries)
	nKeys := fcfg.Keys
	keys := make([][]int32, components)
	vals := make([][]float64, components)
	for s, tab := range data.Subsets {
		keys[s] = make([]int32, tab.NumRows())
		vals[s] = make([]float64, tab.NumRows())
		for r := range keys[s] {
			keys[s][r], vals[s][r] = tab.Key(r), tab.Value(r)
		}
	}
	in.timing.gen = time.Since(t0)

	t0 = time.Now()
	lives := make([]*ingest.AggLive, components)
	bases := make([]*agg.Component, components)
	for s := range lives {
		l := ingest.NewAggLive(nKeys, aggConfig(seed))
		if _, err := l.Append(keys[s][:aggBaseRows], vals[s][:aggBaseRows]); err != nil {
			return nil, err
		}
		if _, _, _, err := l.Compact(); err != nil {
			return nil, err
		}
		lives[s] = l
		snap, _ := l.Snapshot()
		bases[s] = snap.Base()
	}
	levels := bases[0].Syn.Levels()
	levelAcc := make([]float64, levels)
	for l := range levelAcc {
		levelAcc[l] = agg.MeasureLevelAccuracy(bases, queries[:aggCalibration], l)
	}
	in.timing.aggBuild = time.Since(t0)

	var (
		fe      *frontend.Frontend
		cache   *rescache.Cache
		auditor *audit.Auditor
		swaps   int
	)
	handler := netsvc.NewLiveAggBackend(lives, netsvc.BackendOptions{})
	t0 = time.Now()
	r, err := startRig(rigSpec{
		handler: func(int) netsvc.Handler { return handler },
		ingest:  netsvc.NewLiveIngestHandler(netsvc.LiveStores{Agg: lives}),
		aggOpts: netsvc.AggregatorOptions{Policy: service.WaitAll, Deadline: 2 * time.Second},
		front: func(r *rig) (*netsvc.FrontServer, error) {
			ctrl, err := newController(levelAcc)
			if err != nil {
				return nil, err
			}
			fe, err = frontend.New(tr.wrapBackend(r.agg), frontendOptions(ctrl))
			if err != nil {
				return nil, err
			}
			opts := netsvc.ServerOptions{Workers: 8}
			if planes {
				opts.Tracer = obs.NewRecorder(256, 64)
			}
			fs := netsvc.NewFrontServer(r.agg, fe, opts)
			// RefreshBelow next to zero keeps the cache's timer-paced
			// refresh-to-exact worker idle: every other piece of work in
			// this workload is driven by the op count, not the clock.
			cache, err = rescache.New(rescache.Config{RefreshBelow: 1e-9})
			if err != nil {
				return nil, err
			}
			r.closers = append(r.closers, cache.Close)
			if err := fs.EnableCache(cache); err != nil {
				return nil, err
			}
			fs.EnableIngest(aggRewarm)
			if planes {
				fs.EnableSLO(obs.NewSLOTracker(obs.DefaultSLOBudgets()), nil)
				auditor, err = fs.EnableAudit(audit.Config{SampleFraction: 1.0 / aggAuditEvery})
				if err != nil {
					return nil, err
				}
				r.closers = append(r.closers, auditor.Close)
				if err := fs.EnableCost(cost.NewTable()); err != nil {
					return nil, err
				}
			}
			return fs, nil
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
		return opSequence(seed, n, aggQueries, aggZipf, opMix{
			ingestEvery: aggIngestEvery, publishEvery: aggSwapEvery, compactEvery: aggCompact,
		})
	}

	// Ground truth: base rows now, staged rows folded in whenever the
	// harness makes them visible.
	truth := make([]aggTruth, len(queries))
	type staged struct{ shard, off int }
	var pending []staged
	in.prepare = func() error {
		for i, q := range queries {
			truth[i] = aggTruth{q: q, sum: make([]float64, nKeys), cnt: make([]float64, nKeys)}
			for s := range keys {
				for r := 0; r < aggBaseRows; r++ {
					truth[i].fold(keys[s][r], vals[s][r])
				}
			}
		}
		return nil
	}
	foldPending := func() {
		for _, p := range pending {
			for r := p.off; r < p.off+aggBatchRows; r++ {
				k, v := keys[p.shard][r], vals[p.shard][r]
				for i := range truth {
					truth[i].fold(k, v)
				}
			}
		}
		pending = pending[:0]
	}
	minLevel := floorLevel(levelAcc, aggBoundedMin)
	var estGot, estWant []float64
	in.exec = func(ctx context.Context, i int, o op, _ time.Time, out *opResult) {
		out.level = -1
		switch o.kind {
		case opRead:
			out.read = true
			req := *reqs[o.query][o.class]
			if planes {
				// Harness-stamped trace ids make the auditor's hash-based
				// sampling pick the same requests on every run.
				req.Trace = uint64(i) + 1
			}
			rep, err := r.client.Call(ctx, &req)
			if err != nil {
				out.violation = "call: " + err.Error()
				return
			}
			out.id, out.cached, out.degraded, out.level = rep.ID, rep.Cached, rep.Degraded, int(rep.Level)
			if rep.Status != wire.ReplyOK || rep.Agg == nil {
				if rep.Status == wire.ReplyErr {
					out.violation = "reply error: " + rep.Err
				}
				return
			}
			t := &truth[o.query]
			q := t.q
			estGot = netsvc.AggResultOf(rep.Agg).EstimatesInto(estGot, q.Op)
			estWant = t.result().EstimatesInto(estWant, q.Op)
			out.answered, out.accuracy = true, agg.Accuracy(estGot, estWant)
			switch {
			case o.class == classExact && !t.closeTo(rep.Agg):
				out.violation = "exact reply differs from ground truth of base + published rows"
			case o.class == classBounded && !rep.Degraded && int(rep.Level) < minLevel:
				out.violation = fmt.Sprintf("bounded reply served from level %d below floor level %d", rep.Level, minLevel)
			default:
				out.ok = true
			}
		case opIngest:
			b := int(o.query)
			shard := b % components
			off := aggBaseRows + (b/components)*aggBatchRows%aggStreamRows
			ack, err := r.client.Ingest(ctx, &wire.IngestRequest{
				Kind: wire.KindAgg, Subset: int32(shard),
				Agg: &wire.AggIngest{Keys: keys[shard][off : off+aggBatchRows], Vals: vals[shard][off : off+aggBatchRows]},
			})
			switch {
			case err != nil:
				out.violation = "ingest: " + err.Error()
			case ack.Status != wire.IngestOK || ack.Accepted != aggBatchRows:
				out.violation = fmt.Sprintf("ingest status %d accepted %d: %s", ack.Status, ack.Accepted, ack.Err)
			default:
				out.ok = true
				pending = append(pending, staged{shard, off})
			}
		case opPublish, opCompact:
			var epoch uint64
			t0 := time.Now()
			for _, l := range lives {
				var ep uint64
				if o.kind == opPublish {
					ep, _, _ = l.PublishDelta()
				} else {
					var err error
					if ep, _, _, err = l.Compact(); err != nil {
						out.violation = "compact: " + err.Error()
						return
					}
				}
				if ep > epoch {
					epoch = ep
				}
			}
			out.swapNs = float64(time.Since(t0))
			foldPending()
			r.front.NotifyEpochSwap(epoch)
			swaps++
			out.ok = true
		}
	}
	in.layerCounts = func(m map[string]float64, c counts) {
		fs, cs := fe.Stats(), cache.Stats()
		m["frontend.rejected_frac"] = ratio(float64(fs.Rejected), float64(c.reads))
		lookups := float64(cs.Hits + cs.Misses)
		m["rescache.stale_frac"] = ratio(float64(cs.Stale), lookups)
		m["rescache.coalesced_frac"] = ratio(float64(cs.Coalesced), lookups)
		m["rescache.rewarm_per_swap"] = ratio(float64(cs.Rewarms), float64(swaps))
		m["ingest.swaps"] = float64(swaps)
		if auditor != nil {
			as := auditor.Stats()
			m["audit.audited_frac"] = ratio(float64(as.Audited), float64(c.reads))
		}
	}
	in.probes = func(tr *tracer, m map[string]float64) {
		probeAggEngines(m, bases[0], queries)
		probeFrontend(m, levelAcc, reqs[0][classBestEffort])
		probeCache(m, reqs)
		probeIngest(m, nKeys, aggConfig(seed), keys[0], vals[0])
		probePlanes(m)
	}
	return in, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
