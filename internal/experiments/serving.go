package experiments

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/service"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/wire"
	"accuracytrader/internal/workload"
)

// What the wall-clock serving experiments (the *compare family over
// internal/service and internal/netsvc) share: the request templates, the
// accuracy references, the calibrated ladder, the frontends, one loopback
// deployment (deployment.start over netsvc.StartLoopback), one way to
// issue and classify a request (target.issue), and the per-row tally.

// AggRequest builds the whole-service wire request of one aggregation
// query, unclassed and unlevelled; callers stamp SLO, budget and tenant.
func AggRequest(q agg.Query) *wire.Request {
	return &wire.Request{
		Kind: wire.KindAgg, Subset: -1, SLO: wire.SLONone, Level: wire.NoLevel,
		Agg: &wire.AggRequest{Op: uint8(q.Op), Lo: q.Lo, Hi: q.Hi},
	}
}

// CFRequest builds the whole-service wire request of one CF request.
func CFRequest(r workload.CFRequest) *wire.Request {
	ratings := make([]wire.Rating, len(r.Known))
	for i, kr := range r.Known {
		ratings[i] = wire.Rating{Item: kr.Item, Score: kr.Score}
	}
	return &wire.Request{
		Kind: wire.KindCF, Subset: -1, SLO: wire.SLONone, Level: wire.NoLevel,
		CF: &wire.CFRequest{Ratings: ratings, Targets: r.Targets},
	}
}

// SearchRequest builds the whole-service wire request of one top-k
// search query.
func SearchRequest(q string, k int32) *wire.Request {
	return &wire.Request{
		Kind: wire.KindSearch, Subset: -1, SLO: wire.SLONone, Level: wire.NoLevel,
		Search: &wire.SearchRequest{Query: q, K: k},
	}
}

// aggFix is what an aggregation serving experiment starts from: the
// service, a query sample, the ladder accuracy calibrated over at most
// its first 40 queries, each query's exact merged estimates (the
// reference every measured accuracy scores against), and the modeled
// per-row scan cost.
type aggFix struct {
	*AggService
	queries  []agg.Query
	levelAcc []float64
	exact    [][]float64
	unitMs   float64
}

// aggFixture builds the service at sc and samples nq queries with the
// experiment's salt.
func aggFixture(sc Scale, salt uint64, nq int) (*aggFix, error) {
	svc, err := BuildAggService(sc)
	if err != nil {
		return nil, err
	}
	f := &aggFix{AggService: svc, queries: svc.Data.SampleAggQueries(sc.Seed^salt, nq), unitMs: sc.aggUnitCostMs()}
	f.levelAcc = LadderAccuracy(svc.Comps, f.queries[:min(len(f.queries), 40)])
	nKeys := svc.Comps[0].T.NumKeys()
	exact := agg.NewResult(nKeys)
	var scratch agg.Result
	for _, q := range f.queries {
		exact = exact.Reset(nKeys)
		for _, c := range svc.Comps {
			scratch = agg.ExactResultInto(scratch, c, q)
			exact.Merge(scratch)
		}
		f.exact = append(f.exact, exact.Estimates(q.Op))
	}
	return f, nil
}

// ms converts a duration to milliseconds; msDur converts back.
func ms(d time.Duration) float64    { return float64(d) / float64(time.Millisecond) }
func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// pct is n as a percentage of of (0 of nothing).
func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
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

// deployment is one loopback stack of the serving experiments: n
// component servers, the aggregator over them and — given front — a
// front server with its frontend and planes.
type deployment struct {
	n       int
	handler func(i int) netsvc.Handler
	server  netsvc.ServerOptions
	agg     *netsvc.AggregatorOptions // nil: gatherAll
	wrap    func(i int, l net.Listener) net.Listener
	// lives, when set, are the live stores server i appends to
	// (lives[i]), through the front server's forwarding.
	lives []*ingest.AggLive
	// front is the front server's options, planes included; nil deploys
	// none, and callers drive the aggregator.
	front *netsvc.ServerOptions
	// levelAcc calibrates the standard frontend, admitting at most
	// inflight requests (0: every one); nil runs the front server's
	// default frontend.
	levelAcc []float64
	inflight int
}

// shared serves every component with one handler.
func shared(h netsvc.Handler) func(int) netsvc.Handler {
	return func(int) netsvc.Handler { return h }
}

// served is a running deployment and the target its client is.
type served struct {
	*netsvc.Loopback
	target
}

// start deploys d; the caller closes it.
func (d deployment) start() (*served, error) {
	spec := netsvc.LoopbackSpec{Components: d.n, Handler: d.handler, Server: d.server, Agg: gatherAll, WrapListener: d.wrap}
	if d.agg != nil {
		spec.Agg = *d.agg
	}
	if d.lives != nil {
		spec.Ingest = func(i int) netsvc.IngestHandler {
			return netsvc.NewLiveIngestHandler(netsvc.LiveStores{Agg: d.lives[i : i+1]})
		}
	}
	if d.front != nil {
		spec.Front = &netsvc.FrontSpec{Server: *d.front}
		if d.levelAcc != nil {
			opts, err := standardOptions(d.inflight, d.levelAcc)
			if err != nil {
				return nil, err
			}
			spec.Front.Frontend = &opts
		}
	}
	lb, err := netsvc.StartLoopback(spec)
	if err != nil {
		return nil, err
	}
	return &served{lb, target{lb.Client.Call, d.levelAcc}}, nil // a nil Client's Call is never made
}

// target is where a serving experiment sends whole-service requests —
// a loopback client, or an in-process gather replying as a front server
// would — and the ladder calibration its replies' claims are judged by
// (nil: every level claims 1, a frontend without a controller).
type target struct {
	send     func(context.Context, *wire.Request) (*wire.Reply, error)
	levelAcc []float64
}

// stamp is what a request carries beyond its query: its class and
// floor, its absolute service budget (zero: none) and its tenant.
type stamp struct {
	slo      frontend.SLO
	deadline time.Time
	tenant   string
}

// outcome is one request's classified reply.
type outcome struct {
	rep    *wire.Reply // nil when the call itself failed
	err    error       // the call's own failure
	status uint8       // the reply's status; ReplyErr when the call failed
	// strata is the fan-out width the reply reports, missing how many of
	// them are absent from its answer.
	strata, missing int
	acc             float64   // accuracy against the exact estimates (payload replies)
	broken          bool      // the reply breaks its class's promise
	at              time.Time // when the reply arrived
}

// issue stamps req, sends it and classifies the reply; ref is the
// query's exact estimates (nil scores no accuracy).
func (tg target) issue(ctx context.Context, req *wire.Request, st stamp, ref []float64) outcome {
	req.SLO, req.MinAccuracy = uint8(st.slo.Kind), st.slo.MinAccuracy
	if !st.deadline.IsZero() {
		req.Deadline = st.deadline.UnixNano()
	}
	req.Tenant = st.tenant
	rep, err := tg.send(ctx, req)
	at := time.Now()
	o := outcome{err: err, status: wire.ReplyErr}
	if err == nil {
		o = classify(req, rep, st.slo, ref, tg.levelAcc)
	}
	o.at = at
	return o
}

// classify judges rep, the reply to req sent as class slo. The promises:
// a ReplyOK answer has every stratum; an Exact answer is never degraded
// and equals the exact estimates; a Bounded answer claims at least its
// floor — its level's calibrated accuracy discounted by the strata it
// lost — unless admission downgraded it to BestEffort; and BestEffort
// is never refused.
func classify(req *wire.Request, rep *wire.Reply, slo frontend.SLO, ref, levelAcc []float64) outcome {
	o := outcome{rep: rep, status: rep.Status, strata: len(rep.SubStatus)}
	for _, s := range rep.SubStatus {
		if s != wire.StatusOK {
			o.missing++
		}
	}
	payload, exact := wire.ReplyCarriesPayload(rep.Status), false
	if payload && ref != nil && rep.Agg != nil && len(rep.Agg.Sum) > 0 {
		est := netsvc.AggResultOf(rep.Agg).Estimates(agg.Op(req.Agg.Op))
		o.acc, exact = agg.Accuracy(est, ref), reflect.DeepEqual(est, ref)
	}
	kind := slo.Kind
	if kind == frontend.Bounded && rep.SLO == wire.SLOBestEffort {
		kind = frontend.BestEffort // admission's one downgrade
	}
	switch {
	case rep.Status == wire.ReplyUnavailable:
		o.broken = kind == frontend.BestEffort
	case !payload:
	case rep.Status == wire.ReplyOK && o.missing > 0:
		o.broken = true // a silent partial served as a full answer
	case kind == frontend.Exact:
		o.broken = rep.Status == wire.ReplyDegraded || ref != nil && !exact
	case kind == frontend.Bounded:
		claim := 1.0
		if levelAcc != nil && rep.Level >= 0 {
			claim = levelAcc[min(int(rep.Level), len(levelAcc)-1)]
		}
		if o.strata > 0 {
			claim *= float64(o.strata-o.missing) / float64(o.strata)
		}
		o.broken = claim < slo.MinAccuracy-1e-9
	}
	return o
}

// failed is nil for a ReplyOK outcome, and otherwise says what went wrong.
func (o outcome) failed() error {
	if o.err == nil && o.status != wire.ReplyOK {
		return fmt.Errorf("reply status %d (%s)", o.status, o.rep.Err)
	}
	return o.err
}

// openRow offers the arrival schedule to tg, arrival r asking query
// qis[r] stamped by stampOf, and hands fold each outcome with its
// latency from the intended send, under one lock. It returns the worst
// send lag in ms.
func (f *aggFix) openRow(tg target, arrivalsMs []float64, qis []int,
	stampOf func(r int, intended time.Time) stamp, fold func(r int, latMs float64, o outcome)) float64 {
	var mu sync.Mutex
	lag := netsvc.OpenLoop(arrivalsMs, func(r int, intended time.Time) {
		qi := qis[r]
		req := AggRequest(f.queries[qi])
		req.ID = uint64(r)
		o := tg.issue(context.Background(), req, stampOf(r, intended), f.exact[qi])
		mu.Lock()
		defer mu.Unlock()
		fold(r, ms(o.at.Sub(intended)), o)
	})
	return ms(lag)
}

// together runs do(0), …, do(n-1) concurrently — a closed-loop worker
// pool — and returns their errors joined (nil when none failed).
func together(n int, do func(w int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for w := range errs {
		go func() {
			defer wg.Done()
			errs[w] = do(w)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// waitFor polls cond every millisecond until it holds (true) or limit
// has passed (false).
func waitFor(cond func() bool, limit time.Duration) bool {
	end := time.Now().Add(limit)
	for !cond() {
		if !time.Now().Before(end) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// standardOptions is the accuracy-aware policy set every serving
// deployment here and the overload sweep's Frontend+AT row run: the
// default routing (2 replicas, least-loaded), admission by an in-flight
// cap of n plus the 0.35/0.85 queue watermark, and a controller
// calibrated with levelAcc that saturates at the same n. An n of 0
// admits every request, its controller saturating at the controller's
// default. Every call builds fresh policy state.
func standardOptions(n int, levelAcc []float64) (frontend.Options, error) {
	ctrl, err := frontend.NewController(frontend.ControllerConfig{
		Levels:             len(levelAcc),
		LevelAccuracy:      levelAcc,
		InflightSaturation: n,
	})
	if err != nil {
		return frontend.Options{}, err
	}
	opts := frontend.Options{Controller: ctrl}
	if n > 0 {
		opts.Admission = []frontend.AdmissionPolicy{frontend.NewMaxInflight(n), frontend.NewQueueWatermark(0.35, 0.85)}
	}
	return opts, nil
}

// StandardFrontend runs the standard policy set (standardOptions) in
// front of b, counting into metrics (nil: a private registry).
func StandardFrontend(b frontend.Backend, maxInflight int, levelAcc []float64, metrics *obs.Registry) (*frontend.Frontend, error) {
	opts, err := standardOptions(maxInflight, levelAcc)
	if err != nil {
		return nil, err
	}
	opts.Metrics = metrics
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
