package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/breaker"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/stats"
)

// Outcome classifies how one attempt of a sub-operation ended. What
// feeds the hedge estimator, what is breaker evidence and what may be
// retried follow from this class alone, never from the transport.
type Outcome uint8

// The outcome classes.
const (
	OutcomeAnswered Outcome = iota // the target produced a value
	OutcomeSkipped                 // the target reported the propagated budget gone
	// OutcomeShed: the target, or the queue before it, refused the work
	// as overloaded. No latency sample, no health evidence, no retry.
	OutcomeShed
	// OutcomeDown: refused with no evidence against the target (the
	// transport closed, or a breaker probe replaced the connection the
	// attempt was on). Retryable.
	OutcomeDown
	// OutcomePeerFailure: the target could not be reached or broke
	// mid-flight. Breaker evidence; retryable.
	OutcomePeerFailure
	OutcomeAppError // the target is alive and answered with an error
)

// Result is one finished attempt, as its transport reports it. Latency
// is the service time (ignored for refusals and failures).
type Result struct {
	Outcome Outcome
	Value   interface{}
	Err     error
	Latency time.Duration
}

// Transport carries sub-operations to components: the whole difference
// between the runtimes. Cluster's is its mailbox workers,
// netsvc.Aggregator's its TCP connections, a test's a scripted fake.
type Transport interface {
	// Send starts one attempt on a.Target and has a.Done called exactly
	// once with its outcome, possibly before Send returns. False means
	// refused on the spot, nothing sent. An attempt whose subset
	// resolved meanwhile (a.Resolved) may be dropped without Done.
	Send(ctx context.Context, a Attempt, payload interface{}) bool
	// QueueDepth is the sub-operations outstanding on target, the load
	// probe routing policies act on.
	QueueDepth(target int) int
	// Probe: may a sub-operation run on a target whose breaker is not
	// closed, as that breaker's probe? In process a live sub-operation
	// is the only possible probe (br.Allow); a transport with its own
	// prober answers false.
	Probe(target int, br *breaker.Breaker) bool
}

// GatherConfig is filled from the options a runtime already exposes.
type GatherConfig struct {
	N           int // fan-out width: components and subsets
	Policy      Policy
	Deadline    time.Duration // PartialGather bound, default Call timeout (default 1s)
	HedgeFloor  time.Duration // hedge delay until the estimator is warm (default 1ms)
	RetryBudget int           // re-dispatches of a sub-operation after a retryable outcome
	Breaker     breaker.Config
	// OnBreakerState observes each transition with the component it
	// happened on (Breaker.OnStateChange still runs).
	OnBreakerState func(target int, s breaker.State)
	// Metrics (nil: a private registry) receives <Prefix>_subops_total,
	// _hedges_total, _retries_total, _faults_total, _subop_latency_ms,
	// _inflight, and per component _breaker_state and
	// _breaker_transitions_total labelled Label(target), e.g. `comp="3"`.
	Metrics *obs.Registry
	Prefix  string
	Label   func(target int) string
}

// Gather is the scatter/gather core of both wall-clock runtimes: it
// places each sub-operation (router, then breaker eviction), resolves
// each subset first-wins, hedges stragglers at the streaming p95,
// retries peer-level failures within a budget, and gathers per Policy.
type Gather struct {
	t     Transport
	cfg   GatherConfig
	brs   []*breaker.Breaker
	depth func(target int) int // t.QueueDepth, bound once

	mu     sync.Mutex
	route  RouteFunc
	closed bool
	// Streaming P² estimators: constant memory however long it serves.
	p95est, p999est *stats.P2Quantile

	calls    sync.WaitGroup // in-flight Calls, drained by Close
	inflight atomic.Int64
	p95us    atomic.Uint64 // cached hedge trigger, microseconds

	hedges, retries, faults, subOpsC *obs.Counter
	latMs                            *obs.Histogram
}

// NewGather builds the core over a transport.
func NewGather(t Transport, cfg GatherConfig) *Gather {
	if cfg.Deadline <= 0 {
		cfg.Deadline = time.Second
	}
	if cfg.HedgeFloor <= 0 {
		cfg.HedgeFloor = time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g := &Gather{
		t: t, cfg: cfg, depth: t.QueueDepth,
		p95est: stats.NewP2Quantile(0.95), p999est: stats.NewP2Quantile(0.999),
		hedges:  reg.Counter(cfg.Prefix + "_hedges_total"),
		retries: reg.Counter(cfg.Prefix + "_retries_total"),
		faults:  reg.Counter(cfg.Prefix + "_faults_total"),
		subOpsC: reg.Counter(cfg.Prefix + "_subops_total"),
		latMs:   reg.Histogram(cfg.Prefix+"_subop_latency_ms", obs.DefaultLatencyBuckets()),
	}
	g.p95us.Store(uint64(cfg.HedgeFloor / time.Microsecond))
	reg.GaugeFunc(cfg.Prefix+"_inflight", func() float64 { return float64(g.inflight.Load()) })
	for i := 0; i < cfg.N; i++ {
		i, label := i, cfg.Label(i)
		var transitions [3]*obs.Counter
		for s, name := range [...]string{breaker.Closed: "closed", breaker.Open: "open", breaker.HalfOpen: "half_open"} {
			transitions[s] = reg.Counter(fmt.Sprintf(`%s_breaker_transitions_total{%s,state=%q}`, cfg.Prefix, label, name))
		}
		bcfg := cfg.Breaker
		userHook := bcfg.OnStateChange
		bcfg.OnStateChange = func(s breaker.State) {
			transitions[s].Inc()
			if cfg.OnBreakerState != nil {
				cfg.OnBreakerState(i, s)
			}
			if userHook != nil {
				userHook(s)
			}
		}
		br := breaker.New(bcfg)
		g.brs = append(g.brs, br)
		reg.GaugeFunc(fmt.Sprintf(`%s_breaker_state{%s}`, cfg.Prefix, label), func() float64 {
			return float64(br.State())
		})
	}
	return g
}

// SetRouter injects the routing policy of subsequent Calls; nil
// restores home placement (subset i on component i).
func (g *Gather) SetRouter(route RouteFunc) {
	g.mu.Lock()
	g.route = route
	g.mu.Unlock()
}

// Components returns the fan-out width.
func (g *Gather) Components() int { return g.cfg.N }

// Deadline returns the configured call deadline.
func (g *Gather) Deadline() time.Duration { return g.cfg.Deadline }

// Inflight returns the number of Calls currently executing.
func (g *Gather) Inflight() int { return int(g.inflight.Load()) }

// EstimatedP95 returns the streaming 95th-percentile sub-operation
// latency estimate: the hedge trigger delay.
func (g *Gather) EstimatedP95() time.Duration {
	return time.Duration(g.p95us.Load()) * time.Microsecond
}

// Breaker returns one component's breaker, for a transport whose own
// machinery (reconnector, ingest path) feeds it.
func (g *Gather) Breaker(target int) *breaker.Breaker { return g.brs[target] }

// BreakerState returns one component's circuit-breaker state.
func (g *Gather) BreakerState(target int) breaker.State { return g.brs[target].State() }

// OpenBreakers returns the components whose breaker is not closed.
func (g *Gather) OpenBreakers() []int {
	var open []int
	for i := range g.brs {
		if !g.healthy(i) {
			open = append(open, i)
		}
	}
	return open
}

// Stats are the core's scatter/gather counters.
type Stats struct {
	SubOps       int   // sub-replies that produced a latency sample
	Hedges       int64 // replicas actually sent
	Retries      int64 // sub-operations re-dispatched after a peer-level failure
	Faults       int64 // peer-level failures (transport failure, unanswered at deadline)
	BreakerOpens int64 // cumulative breaker trips across components
	P999Ms       float64
}

// Stats returns a snapshot of the counters (also in the metrics
// registry). P999Ms is a streaming P² estimate, not an exact percentile.
func (g *Gather) Stats() Stats {
	st := Stats{Hedges: g.hedges.Value(), Retries: g.retries.Value(), Faults: g.faults.Value()}
	for _, b := range g.brs {
		st.BreakerOpens += b.Opens()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if st.SubOps = g.p999est.N(); st.SubOps > 0 {
		st.P999Ms = g.p999est.Value()
	}
	return st
}

// recordLatency feeds one service-time sample to the estimators.
func (g *Gather) recordLatency(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	g.subOpsC.Inc()
	g.latMs.Observe(ms)
	g.mu.Lock()
	g.p95est.Add(ms)
	g.p999est.Add(ms)
	// Cold-start guard + warm-phase cadence (see stats.HedgeEstimateDue):
	// with fewer than five observations the P² "p95" is an interpolation
	// over noise, so the trigger holds HedgeFloor until then.
	if stats.HedgeEstimateDue(g.p95est.N()) {
		p := g.p95est.Value()
		if floor := float64(g.cfg.HedgeFloor) / float64(time.Millisecond); p < floor {
			p = floor
		}
		g.p95us.Store(uint64(p * 1000))
	}
	g.mu.Unlock()
}

// Fault counts one peer-level failure against target's breaker, with a
// breaker-trip span (tr may be nil) when it is the one that opened it.
func (g *Gather) Fault(tr *obs.Trace, target, subset int) {
	g.faults.Inc()
	if g.brs[target].Fail() {
		tr.Add(obs.SpanBreakerTrip, int32(subset), time.Now(), 0, int64(target))
	}
}

func (g *Gather) healthy(target int) bool { return g.brs[target].State() == breaker.Closed }

// nextHealthy returns the first other component after from (wrapping)
// whose breaker is closed, or from itself when no other is healthy.
func (g *Gather) nextHealthy(from int) int {
	for k := 1; k < len(g.brs); k++ {
		if i := (from + k) % len(g.brs); g.healthy(i) {
			return i
		}
	}
	return from
}

// admit decides where a sub-operation wanting target may run: there
// when its breaker is closed or, with mayProbe, the transport lets it be
// the probe; else on the next healthy component (any component serves
// any subset; placement is a latency choice). !ok: nothing is healthy.
func (g *Gather) admit(target int, mayProbe bool) (placed int, ok bool) {
	if g.healthy(target) || mayProbe && g.t.Probe(target, g.brs[target]) {
		return target, true
	}
	alt := g.nextHealthy(target)
	return alt, alt != target
}

// subState is one subset's record within a call.
type subState struct {
	done   atomic.Bool  // resolved: the first CompareAndSwap wins
	hedged atomic.Bool  // a replica was sent
	target atomic.Int32 // component holding the primary (moves on retry)
}

// call is the per-Call state, one slice of per-subset records.
type call struct {
	g        *Gather
	ctx      context.Context
	tr       *obs.Trace
	payload  interface{}
	deadline time.Time
	reply    chan SubResult // cap n: each subset delivers at most once
	subs     []subState
}

// Attempt is one placement of one sub-operation; the transport holds
// it until the outcome is known.
type Attempt struct {
	c      *call
	Subset int
	Target int
	Try    int  // 0 for the first placement, +1 per retry
	Hedge  bool // a replica, not the primary
}

// Resolved reports whether the subset already has its result (the
// other replica answered, or the gather gave up on it).
func (a Attempt) Resolved() bool { return a.c.subs[a.Subset].done.Load() }

// Call fans payload out to every component and gathers per the policy:
// one entry per subset, in subset order; skipped or failed
// sub-operations carry Err/Skipped.
func (g *Gather) Call(ctx context.Context, payload interface{}) ([]SubResult, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrClosed
	}
	g.calls.Add(1)
	route := g.route
	g.mu.Unlock()
	defer g.calls.Done()
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.Deadline)
		defer cancel()
	}
	n := g.cfg.N
	c := &call{
		g: g, ctx: ctx, tr: obs.TraceFrom(ctx), payload: payload,
		reply: make(chan SubResult, n), subs: make([]subState, n),
	}
	c.deadline, _ = ctx.Deadline()
	for i := 0; i < n; i++ {
		target := i
		if route != nil {
			if t := route(i, n, g.depth); t >= 0 && t < n {
				target = t
			}
		}
		// An open-breaker component is evicted while a healthy one exists.
		if placed, ok := g.admit(target, true); ok {
			c.send(i, placed, 0, false)
		} else {
			c.deliver(i, target, SubResult{Err: ErrComponentDown})
		}
	}

	out := make([]SubResult, n)
	var hedgeC, deadlineC <-chan time.Time
	if t := g.armHedge(); t != nil {
		defer t.Stop()
		hedgeC = t.C
	}
	if g.cfg.Policy == PartialGather {
		t := time.NewTimer(time.Until(c.deadline))
		defer t.Stop()
		deadlineC = t.C
	}
	for remaining := n; remaining > 0; {
		select {
		case r := <-c.reply:
			out[r.Subset] = r
			remaining--
		case <-hedgeC:
			c.hedge()
		case <-deadlineC:
			// Partial execution: compose without the stragglers, whose
			// components keep working (wasted computation, as in the paper).
			remaining -= c.abandon(out, nil, true)
		case <-ctx.Done():
			// Deadline expiry indicts the component; caller cancellation
			// does not.
			remaining -= c.abandon(out, ctx.Err(), errors.Is(ctx.Err(), context.DeadlineExceeded))
		}
	}
	return out, nil
}

// send hands one attempt to the transport.
func (c *call) send(subset, target, try int, hedge bool) bool {
	if !hedge {
		c.subs[subset].target.Store(int32(target))
	}
	return c.g.t.Send(c.ctx, Attempt{c, subset, target, try, hedge}, c.payload)
}

// deliver resolves a subset with r unless something already has. Only
// the winner records a sub-op span: one per subset, hedge race or not.
func (c *call) deliver(subset, target int, r SubResult) {
	s := &c.subs[subset]
	if !s.done.CompareAndSwap(false, true) {
		return
	}
	if c.tr != nil && r.Err == nil && !r.Skipped {
		c.tr.Add(obs.SpanSubOp, int32(subset), time.Now().Add(-r.Latency), r.Latency, int64(target))
	}
	r.Subset, r.Hedged = subset, s.hedged.Load()
	c.reply <- r
}

// abandon resolves every unanswered subset as skipped and returns how
// many. With evidence each counts against the component holding it: not
// answering in time is all a stalled or partitioned one ever produces.
func (c *call) abandon(out []SubResult, err error, evidence bool) (resolved int) {
	for i := range c.subs {
		s := &c.subs[i]
		// Losing the swap means a reply just won and is in c.reply.
		if !s.done.CompareAndSwap(false, true) {
			continue
		}
		out[i] = SubResult{Subset: i, Err: err, Skipped: true}
		resolved++
		if evidence {
			c.g.Fault(c.tr, int(s.target.Load()), i)
		}
	}
	return resolved
}

// armHedge starts a Hedged call's reissue timer. All primaries go out
// within microseconds, so one timer at the p95 estimate serves them all.
func (g *Gather) armHedge() *time.Timer {
	if g.cfg.Policy != Hedged {
		return nil
	}
	return time.NewTimer(g.EstimatedP95())
}

// hedge sends a replica of every sub-operation still unanswered.
func (c *call) hedge() {
	for i := range c.subs {
		s := &c.subs[i]
		if s.done.Load() {
			continue
		}
		// A replica goes to the component after the subset's own (the
		// next healthy one rather than into an open breaker), and never
		// where the primary sits: it would queue behind the very
		// sub-operation it hedges.
		rc, ok := c.g.admit((i+1)%len(c.subs), false)
		if !ok || rc == int(s.target.Load()) {
			continue
		}
		// Flagged before sending, so the replica's own reply already
		// sees it; unflagged and uncounted unless it was actually sent.
		s.hedged.Store(true)
		if !c.send(i, rc, 0, true) {
			s.hedged.Store(false)
			continue
		}
		c.g.hedges.Inc()
		c.tr.Add(obs.SpanHedge, int32(i), time.Now(), 0, int64(rc))
	}
}

// Done reports the attempt's outcome. Every reply is bookkept
// (estimator, breaker) whether or not it wins its subset.
func (a Attempt) Done(r Result) {
	c, g := a.c, a.c.g
	switch r.Outcome {
	case OutcomeAnswered, OutcomeSkipped, OutcomeAppError:
		// A reply is proof of life and a service-time sample. A shed is
		// neither: it returns in microseconds exactly when the cluster is
		// overloaded, and would drag the hedge trigger to the floor.
		g.brs[a.Target].Success()
		g.recordLatency(r.Latency)
	case OutcomePeerFailure:
		if c.ctx.Err() != nil {
			// Most likely the call's own expiry or cancellation, seen by
			// the transport; the gather loop weighs that evidence itself.
			return
		}
		g.Fault(c.tr, a.Target, a.Subset)
	}
	sr := SubResult{Value: r.Value, Err: r.Err, Latency: r.Latency, Skipped: r.Outcome == OutcomeSkipped}
	switch {
	case r.Outcome == OutcomeAnswered || r.Outcome == OutcomeSkipped:
		// (A skip means the budget is gone, so a replica's skip
		// resolves the subset just as the primary's would.)
	case a.Hedge:
		// A refused or failed replica never displaces the primary.
		return
	case (r.Outcome == OutcomeDown || r.Outcome == OutcomePeerFailure) &&
		a.Try < g.cfg.RetryBudget && !a.Resolved() && time.Now().Before(c.deadline):
		if next, ok := g.admit(a.Target, false); ok {
			g.retries.Inc()
			c.tr.Add(obs.SpanRetry, int32(a.Subset), time.Now(), 0, int64(next))
			c.send(a.Subset, next, a.Try+1, false)
			return
		}
	}
	c.deliver(a.Subset, a.Target, sr)
}

// Close makes Call return ErrClosed and waits for in-flight Calls.
func (g *Gather) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.calls.Wait()
}
