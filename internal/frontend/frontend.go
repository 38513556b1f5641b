package frontend

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"accuracytrader/internal/obs"
	"accuracytrader/internal/service"
)

// ErrRejected is returned by Frontend.Call for requests shed by an
// admission policy.
var ErrRejected = errors.New("frontend: admission rejected request")

// Backend is the fan-out runtime a Frontend drives: the seam that lets
// one policy set (admission, routing, degradation) govern both
// wall-clock runtimes, the in-process goroutine cluster
// (service.Cluster) and the networked aggregator (netsvc.Aggregator),
// which run the same gather core (service.Gather). The load
// probes (QueueDepth, Inflight, EstimatedP95) feed the Load snapshot;
// SetRouter receives the frontend's replica-routing policy; Call fans
// one request out and gathers sub-results.
type Backend interface {
	// Components returns the fan-out width.
	Components() int
	// QueueCap is the per-component queue bound QueueDepth is measured
	// against (mailbox length in process, outstanding-request window
	// over the network).
	QueueCap() int
	// QueueDepth returns the outstanding sub-operations on component c.
	QueueDepth(c int) int
	// Inflight returns the number of Calls currently executing.
	Inflight() int
	// EstimatedP95 is the streaming tail sub-operation latency estimate.
	EstimatedP95() time.Duration
	// Deadline is the backend's configured call deadline.
	Deadline() time.Duration
	// SetRouter injects the routing policy used to place sub-operations.
	SetRouter(service.RouteFunc)
	// Call fans the payload out and gathers one SubResult per subset.
	Call(ctx context.Context, payload interface{}) ([]service.SubResult, error)
}

// Options configures a Frontend.
type Options struct {
	// Admission policies, evaluated together; the most severe verdict
	// wins (see Chain). Empty admits everything.
	Admission []AdmissionPolicy
	// Router places sub-operations on replicas (default least-loaded).
	Router Router
	// Replicas is the replica factor of the component map (default 2).
	Replicas int
	// Controller maps load to ladder levels. Nil disables degradation:
	// no level is attached to requests (LevelFrom reports ok=false, so
	// handlers use their finest synopsis) and Result.Level is -1,
	// matching the simulator's nil-controller behaviour.
	Controller *Controller
	// Metrics is the observability registry the frontend's counters live
	// in (frontend_admitted_total, frontend_degraded_total,
	// frontend_rejected_total). Nil uses a private registry; Stats() is
	// unaffected either way.
	Metrics *obs.Registry
}

// WithDefaults returns o with its unset routing filled in: a replica
// factor of 2 and least-loaded routing. New and the simulator's
// frontend (cluster.FrontendConfig) both start from it, so one Options
// value routes alike in every runtime.
func (o Options) WithDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Router == nil {
		o.Router = NewLeastLoaded()
	}
	return o
}

// Stats counts frontend outcomes.
type Stats struct {
	Admitted int64
	Degraded int64 // admitted with a downgraded SLO
	Rejected int64
}

// Result is one request's call record: its gathered answer, and the
// context its fan-out ran under. As a context it is the caller's, except
// that it answers SLOFrom with its SLO and, once a controller chose one,
// LevelFrom with its Level, so a call adds no context layer of its own.
// Sub-operations can outlive the call (a late straggler, an abandoned
// in-process handler) and still read it: a record is never reused.
type Result struct {
	// Sub holds the per-subset replies, in subset order.
	Sub []service.SubResult
	// SLO is the effective class after any admission downgrade.
	SLO SLO
	// Level is the ladder level the request was served from (coarse 0
	// … fine Levels-1), or -1 when no degradation controller is set.
	Level int
	// Answered counts the subsets that contributed; fewer than len(Sub)
	// is a partial answer.
	Answered int
	// EstimatedAccuracy is the accuracy the answer claims (Claim): the
	// controller's estimate for Level (1 for Exact-class results and
	// without a controller), discounted by Answered of len(Sub).
	EstimatedAccuracy float64
	// Degraded reports that the front decision downgraded the request's
	// class: admission's Degrade verdict, or a Bounded floor no level
	// reaches.
	Degraded bool

	parent // the caller's context: Deadline, Done and Err are its
}

// parent embeds the caller's context in a record without exporting it.
type parent = context.Context

// Value answers the SLO key with a pointer to the record's class (no
// boxing), the level key with the chosen level, and defers every other
// key to the caller's context.
func (r *Result) Value(key any) any {
	switch key.(type) {
	case sloKey:
		return &r.SLO
	case levelKey:
		if r.Level >= 0 {
			return r.Level
		}
	}
	return r.parent.Value(key)
}

// UnavailableError is the degrade rule's typed refusal of a gather
// (see Claim): Exact with a stratum missing, or Bounded whose
// discounted claim falls under its floor. Match it with errors.As.
type UnavailableError struct {
	Kind       SLOKind // Exact or Bounded
	Answered   int     // strata that contributed
	Total      int     // the fan-out width
	Floor      float64 // 1 for Exact, MinAccuracy for Bounded
	Discounted float64 // the claim the gathered strata support
}

func (e *UnavailableError) Error() string {
	if e.Kind == Exact {
		return fmt.Sprintf("exact answer unavailable: %d of %d strata answered", e.Answered, e.Total)
	}
	return fmt.Sprintf("accuracy floor %.3f unreachable: %d of %d strata answered (discounted accuracy %.3f)",
		e.Floor, e.Answered, e.Total, e.Discounted)
}

// Claim is the per-SLO degrade rule that both runtimes apply to a
// gather. A full gather claims acc, the accuracy it was served at. Each
// stratum is 1/total of the answer, so a partial one claims
// acc·answered/total. A claim its class cannot take is refused: Exact
// with any stratum missing, Bounded under its floor — a partial gather,
// or a full one served at a level under the floor (Decide downgrades
// those before the fan-out; this is the backstop). Only a refusal
// allocates.
func Claim(subs []service.SubResult, slo SLO, acc float64) (answered int, claim float64, err error) {
	for i := range subs {
		if subs[i].Answered() {
			answered++
		}
	}
	total := len(subs)
	claim = acc
	if answered < total {
		claim = acc * float64(answered) / float64(total)
	}
	switch {
	case slo.Kind == Exact && answered < total:
		err = &UnavailableError{Exact, answered, total, 1, claim}
	case slo.Kind == Bounded && claim < slo.MinAccuracy:
		err = &UnavailableError{Bounded, answered, total, slo.MinAccuracy, claim}
	}
	return answered, claim, err
}

// Frontend is the admission → routing → degradation pipeline in front
// of a fan-out Backend (a live service.Cluster or a networked
// netsvc.Aggregator). New injects its router into the backend; Call
// performs admission and level selection, then fans out.
type Frontend struct {
	cl    Backend
	opts  Options
	rmap  ReplicaMap
	start time.Time

	admitted *obs.Counter
	degraded *obs.Counter
	rejected *obs.Counter
	// inflightNow reserves a request's in-flight slot at admission
	// time: the cluster's own counter only rises once Call reaches it,
	// which would let a concurrent burst race past MaxInflight.
	inflightNow atomic.Int64
}

// New wraps a backend. The backend's router is replaced with the
// frontend's replica-routing policy (backends fall back to home
// placement for anything the router leaves out of range).
func New(cl Backend, opts Options) (*Frontend, error) {
	opts = opts.WithDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f := &Frontend{
		cl:       cl,
		opts:     opts,
		rmap:     NewReplicaMap(cl.Components(), opts.Replicas),
		start:    time.Now(),
		admitted: reg.Counter("frontend_admitted_total"),
		degraded: reg.Counter("frontend_degraded_total"),
		rejected: reg.Counter("frontend_rejected_total"),
	}
	reg.GaugeFunc("frontend_inflight", func() float64 { return float64(f.inflightNow.Load()) })
	cl.SetRouter(func(subset, n int, queueDepth func(int) int) int {
		return f.opts.Router.Pick(subset, f.rmap.Replicas(subset), queueDepth)
	})
	return f, nil
}

// Snapshot reads the backend's live load signals.
func (f *Frontend) Snapshot() Load {
	return FoldLoad(f.cl.Components(), f.cl.QueueCap(), f.cl.Inflight(), f.cl.QueueDepth,
		float64(f.cl.EstimatedP95()), float64(f.cl.Deadline()))
}

// FoldLoad folds load probes into a snapshot: each of n components'
// queue depth as a fraction of cap, averaged and maxed, and the tail
// estimate p95 as a fraction of the deadline (0 without one; any one
// unit for both). The live frontend and the simulator both fold here.
func FoldLoad(n, cap, inflight int, depth func(c int) int, p95, deadline float64) Load {
	sum, max := 0.0, 0.0
	for c := 0; c < n; c++ {
		frac := float64(depth(c)) / float64(cap)
		sum += frac
		if frac > max {
			max = frac
		}
	}
	lat := 0.0
	if deadline > 0 {
		lat = p95 / deadline
	}
	return Load{
		Inflight:     inflight,
		QueueFrac:    sum / float64(n),
		MaxQueueFrac: max,
		LatencyFrac:  lat,
	}
}

// Decide is the front decision on one request, in both runtimes and the
// simulator: ctrl (nil: none) observes the load, the admission policies
// rule (Chain), a Degrade verdict drops a Bounded request to BestEffort
// (Exact keeps its guarantee, BestEffort has nothing to give up), and
// ctrl picks the level for the effective class (-1 without one, or when
// rejected). A Bounded request whose level ctrl estimates under its
// floor — a floor no ladder level reaches — is dropped to BestEffort
// and counted degraded the same way, before any work is spent, so it
// is never answered as Bounded under its floor.
func Decide(nowMs float64, l Load, policies []AdmissionPolicy, ctrl *Controller, slo SLO) (eff SLO, level int, degraded, rejected bool) {
	if ctrl != nil {
		ctrl.Observe(l)
	}
	switch Chain(nowMs, l, policies) {
	case Reject:
		return slo, -1, false, true
	case Degrade:
		if slo.Kind == Bounded {
			slo, degraded = BestEffortSLO(), true
		}
	}
	level = -1
	if ctrl != nil {
		level = ctrl.LevelFor(slo)
		if slo.Kind == Bounded && ctrl.LevelAccuracy(level) < slo.MinAccuracy {
			slo, degraded = BestEffortSLO(), true
			level = ctrl.LevelFor(slo)
		}
	}
	return slo, level, degraded, false
}

// Call runs one request through the pipeline (CallInto) into a fresh
// record. A refusal comes with the refused gather's Result; other
// errors with nil.
func (f *Frontend) Call(ctx context.Context, payload interface{}, slo SLO) (*Result, error) {
	res := new(Result)
	err := f.CallInto(ctx, payload, slo, res)
	if err != nil && res.Sub == nil {
		return nil, err
	}
	return res, err
}

// CallInto runs one request through the pipeline into the caller's
// record r, allocating nothing of its own: observe load, admit and pick
// a level (Decide), fan out under r (handlers read LevelFrom and
// SLOFrom), and settle the gather with Claim. r.Sub stays nil on a
// rejection or backend error. Sub-operations may read r after CallInto
// returns, so it must not be reused.
func (f *Frontend) CallInto(ctx context.Context, payload interface{}, slo SLO, r *Result) error {
	// Reserve before deciding: concurrent callers serialize through
	// the counter, so each sees every earlier reservation and a burst
	// admits at most MaxInflight requests (the slot is released when
	// this function returns — immediately for rejected requests).
	reserved := f.inflightNow.Add(1)
	defer f.inflightNow.Add(-1)
	tr := obs.TraceFrom(ctx)
	var admitT0 time.Time
	if tr != nil {
		admitT0 = time.Now()
	}
	load := f.Snapshot()
	load.Inflight = int(reserved - 1)
	nowMs := float64(time.Since(f.start)) / float64(time.Millisecond)
	eff, level, degraded, rejected := Decide(nowMs, load, f.opts.Admission, f.opts.Controller, slo)
	*r = Result{SLO: eff, Level: level, Degraded: degraded, parent: ctx}
	if rejected {
		f.rejected.Inc()
		if tr != nil {
			tr.SetDecision(obs.VerdictRejected, uint8(slo.Kind), -1)
			tr.Add(obs.SpanAdmission, -1, admitT0, time.Since(admitT0), obs.VerdictRejected)
		}
		return ErrRejected
	}
	if degraded {
		f.degraded.Inc()
	}
	f.admitted.Inc()
	estAcc := 1.0
	// Exact-class handlers bypass their synopsis entirely; the delivered
	// accuracy is 1 regardless of the level estimate.
	if f.opts.Controller != nil && eff.Kind != Exact {
		estAcc = f.opts.Controller.LevelAccuracy(level)
	}
	if tr != nil {
		verdict := uint8(obs.VerdictAdmitted)
		if degraded {
			verdict = obs.VerdictDegraded
		}
		tr.SetDecision(verdict, uint8(eff.Kind), int16(level))
		tr.Add(obs.SpanAdmission, -1, admitT0, time.Since(admitT0), int64(verdict))
	}
	sub, err := f.cl.Call(r, payload)
	if err != nil {
		return err
	}
	r.Sub = sub
	r.Answered, r.EstimatedAccuracy, err = Claim(sub, eff, estAcc)
	return err
}

// Stats returns the admission counters. The counters live in the
// Options.Metrics registry (or a private one), so the same numbers are
// one Prometheus scrape away; this snapshot API is unchanged.
func (f *Frontend) Stats() Stats {
	return Stats{
		Admitted: f.admitted.Value(),
		Degraded: f.degraded.Value(),
		Rejected: f.rejected.Value(),
	}
}

// Backend returns the fan-out runtime the frontend drives, as New was
// given it (decorators included).
func (f *Frontend) Backend() Backend { return f.cl }

// Controller exposes the degradation controller (for reporting); nil
// when the frontend runs without degradation.
func (f *Frontend) Controller() *Controller { return f.opts.Controller }

// levelKey is the context key a call record answers with its ladder
// level.
type levelKey struct{}

// LevelFrom extracts the ladder level a handler should serve from.
// ok is false when no controller chose one (or the request did not pass
// through a Frontend); such handlers should use their finest synopsis.
func LevelFrom(ctx context.Context) (level int, ok bool) {
	level, ok = ctx.Value(levelKey{}).(int)
	return level, ok
}

// sloKey is the context key a call record answers with its effective
// SLO.
type sloKey struct{}

// SLOFrom extracts the request's effective SLO inside a handler —
// in particular, handlers that can process exactly should bypass
// their synopsis entirely for Exact-class requests, matching the
// simulator's semantics (exactness is a guarantee paid in latency).
// ok is false when the request did not pass through a Frontend.
func SLOFrom(ctx context.Context) (slo SLO, ok bool) {
	if p, ok := ctx.Value(sloKey{}).(*SLO); ok {
		return *p, true
	}
	return SLO{}, false
}
