package experiments

import (
	"context"
	"fmt"
	"reflect"
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

// What the wall-clock serving experiments share beside their deployment
// and load (deploy.go): the request templates, the accuracy references,
// the calibrated ladder, the frontends, one way to issue and classify a
// request (target.issue), and the per-row tally.

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

// asking is a load's request function asking query qis[r] as request r,
// stamped by stampOf and scored against the query's exact estimates.
func (f *aggFix) asking(qis []int, stampOf func(r int, intended time.Time) stamp) func(int, time.Time) ask {
	return func(r int, intended time.Time) ask {
		req := AggRequest(f.queries[qis[r]])
		req.ID = uint64(r)
		return ask{req, stampOf(r, intended), f.exact[qis[r]]}
	}
}

// asks is a load's request function asking q at level for every
// request, stamped s.
func asks(q agg.Query, level int16, s stamp) func(int, time.Time) ask {
	return func(int, time.Time) ask {
		req := AggRequest(q)
		req.Level = level
		return ask{req: req, stamp: s}
	}
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

// loadRow is what an open-loop serving row measures over the arrivals
// it counts.
type loadRow struct {
	Calls                int     // arrivals counted
	Goodput              float64 // good answers per second
	P50Ms, P99Ms, P999Ms float64
	ShedPct              float64    // admission-rejected fraction of Calls
	MeanAcc              float64    // mean measured accuracy over answered requests
	ClassAcc             [3]float64 // per SLO class, indexed by frontend.SLOKind
	MaxLagMs             float64    // worst send lag behind the arrival schedule
	// Unavailable counts the degrade rule's typed refusals; of the
	// answered Exact and Bounded replies (promised), broken is those not
	// exact or claiming under their floor.
	Unavailable                                       int
	rejected, hits, strata, missing, promised, broken int
	t                                                 tally
}

// count folds request r's outcome, latMs after its intended send, under
// the goodput rule's deadline.
func (lr *loadRow) count(r int, latMs, deadlineMs float64, o outcome) {
	lr.Calls++
	switch o.status {
	case wire.ReplyUnavailable:
		lr.Unavailable++
	case wire.ReplyRejected:
		lr.rejected++
	}
	if o.broken {
		lr.broken++
	}
	if !wire.ReplyCarriesPayload(o.status) {
		return
	}
	lr.t.addTimed(latMs, deadlineMs, overloadClassMix(r).Kind, o.acc)
	if o.rep.Cached {
		lr.hits++
	}
	if o.rep.SLO != wire.SLOBestEffort {
		lr.promised++
	}
	lr.strata += o.strata
	lr.missing += o.missing
}

// close computes the row's statistics over a window of windowSec, its
// load having lagged lagMs at worst.
func (lr *loadRow) close(windowSec, lagMs float64) {
	lr.Goodput, lr.MeanAcc, lr.ClassAcc = lr.t.means(windowSec)
	lr.P50Ms, lr.P99Ms, lr.P999Ms = lr.t.percentile(50), lr.t.percentile(99), lr.t.percentile(99.9)
	lr.ShedPct, lr.MaxLagMs = pct(lr.rejected, lr.Calls), lagMs
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
