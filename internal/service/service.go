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
)

// Handler processes one sub-operation against one data subset. Handlers
// must be safe for concurrent use: under hedging, the same subset's
// handler may run on another component's worker. Its context carries the
// call's deadline and the caller's values, and is done once the call is
// over; it is the call's recycled record (see Transport), so it is valid
// only until the handler returns.
type Handler func(ctx context.Context, payload interface{}) (interface{}, error)

// Policy selects the gather behaviour of Call.
type Policy int

// Gather policies (see package comment).
const (
	WaitAll Policy = iota
	PartialGather
	Hedged
)

// Options configures a Cluster.
type Options struct {
	// QueueLen bounds each component's mailbox (default 1024). A full
	// mailbox makes enqueues fail fast, surfacing overload instead of
	// buffering it invisibly.
	QueueLen int
	// Deadline bounds gathering for PartialGather (and is the default
	// Call timeout for the other policies; default 1s).
	Deadline time.Duration
	// HedgeFloor is the minimum hedge delay before the p95 estimator has
	// warmed up (default 1ms).
	HedgeFloor time.Duration
	// Metrics is the observability registry the gather core's service_*
	// series live in (see GatherConfig.Metrics: sub-ops, hedges, faults,
	// the sub-op latency histogram, breaker state). Nil uses a private
	// registry; Stats() is unaffected either way.
	Metrics *obs.Registry
	// Breaker configures the per-component circuit breakers, fed by the
	// outcome of every executed sub-operation on that component. Zero
	// fields take the breaker package defaults.
	Breaker breaker.Config
}

// SubResult is one component's reply.
type SubResult struct {
	Subset  int
	Value   interface{}
	Err     error
	Latency time.Duration
	Skipped bool // PartialGather: deadline passed before the reply
	Hedged  bool // Hedged: a replica was issued for this sub-operation
}

// Answered reports whether the sub-result contributes to the answer: no
// error, not skipped, a value present.
func (r SubResult) Answered() bool { return r.Err == nil && !r.Skipped && r.Value != nil }

// Complete reports whether every sub-result was answered.
func Complete(subs []SubResult) bool {
	for i := range subs {
		if !subs[i].Answered() {
			return false
		}
	}
	return true
}

// RouteFunc picks the component that executes a subset's sub-operation.
// It receives the subset, the component count, and a live queue-depth
// probe, and must return a component in [0, n). Handlers are safe for
// concurrent use (see Handler), so any component can serve any subset.
type RouteFunc func(subset, n int, queueDepth func(comp int) int) int

// ErrQueueFull is reported for a sub-operation shed because its
// component's queue (mailbox, outstanding-request window) was full.
var ErrQueueFull = errors.New("service: component queue full")

// ErrComponentDown is reported for a sub-operation refused fast because
// the target component's circuit breaker is open and no healthy
// component could take the placement.
var ErrComponentDown = errors.New("service: component circuit open")

// ErrBudgetExpired is a handler's answer to a sub-operation whose budget
// was gone before it started. Like a component server's Skipped reply,
// it resolves the subset Skipped and is no breaker evidence.
var ErrBudgetExpired = errors.New("service: sub-operation budget expired")

// ErrClosed is returned by Call after Close.
var ErrClosed = errors.New("service: closed")

type job struct {
	a        Attempt
	handler  Handler
	payload  interface{}
	ctx      context.Context
	enqueued time.Time
}

type component struct {
	mailbox chan job
	idx     int
	busy    atomic.Bool // worker is executing a job right now
}

// compKey is the context key carrying the executing component's index
// to handlers.
type compKey struct{}

// ComponentFrom returns the index of the component whose worker is
// executing the current sub-operation. Under hedging the replica runs
// on a different component than the primary, so handlers modeling
// per-machine effects (co-located interference, cache locality) can
// key on the executor rather than the subset. ok is false outside a
// cluster worker.
func ComponentFrom(ctx context.Context) (comp int, ok bool) {
	comp, ok = ctx.Value(compKey{}).(int)
	return comp, ok
}

// Cluster is a fan-out service: one worker goroutine per component,
// serving as the gather core's in-process transport.
type Cluster struct {
	*Gather
	handlers []Handler
	comps    []*component
	// quit signals workers to stop; mailboxes are never closed.
	quit      chan struct{}
	wg        sync.WaitGroup // worker goroutines
	closeOnce sync.Once
}

// New starts a cluster with one worker per handler. handlers[i] owns data
// subset i.
func New(handlers []Handler, policy Policy, opts Options) (*Cluster, error) {
	if len(handlers) == 0 {
		return nil, fmt.Errorf("service: no handlers")
	}
	if opts.QueueLen <= 0 {
		opts.QueueLen = 1024
	}
	cl := &Cluster{handlers: handlers, quit: make(chan struct{})}
	for i := range handlers {
		cl.comps = append(cl.comps, &component{mailbox: make(chan job, opts.QueueLen), idx: i})
	}
	cl.Gather = NewGather(clusterTransport{cl}, GatherConfig{
		N:          len(handlers),
		Policy:     policy,
		Deadline:   opts.Deadline,
		HedgeFloor: opts.HedgeFloor,
		Breaker:    opts.Breaker,
		Metrics:    opts.Metrics,
		Prefix:     "service",
		Label:      func(comp int) string { return fmt.Sprintf(`comp="%d"`, comp) },
	})
	for _, c := range cl.comps {
		cl.wg.Add(1)
		go cl.worker(c)
	}
	return cl, nil
}

// clusterTransport is the mailbox-worker transport. In process there is
// nothing to retry onto (RetryBudget 0) and no liveness signal but the
// handler itself: a handler error is reported as a peer-level failure,
// so consecutive errors trip the component's breaker, and a live
// sub-operation is the breaker's half-open probe.
type clusterTransport struct{ *Cluster } // QueueDepth is the Cluster's

func (t clusterTransport) Probe(_ int, br *breaker.Breaker) bool { return br.Allow() }

func (t clusterTransport) Send(ctx context.Context, a Attempt, payload interface{}) bool {
	select {
	case t.comps[a.Target].mailbox <- job{a, t.handlers[a.Subset], payload, ctx, time.Now()}:
		return true
	default:
		// A full mailbox fails fast, surfacing overload instead of
		// buffering it invisibly.
		a.Done(Result{Outcome: OutcomeShed, Err: ErrQueueFull})
		return false
	}
}

// worker drains one component's mailbox sequentially — the single-server
// FIFO queue of the model.
func (cl *Cluster) worker(c *component) {
	defer cl.wg.Done()
	for {
		select {
		case <-cl.quit:
			return
		case j := <-c.mailbox:
			if j.a.Resolved() {
				continue // the other replica already answered
			}
			c.busy.Store(true)
			v, err := j.handler(context.WithValue(j.ctx, compKey{}, c.idx), j.payload)
			c.busy.Store(false)
			r := Result{Outcome: OutcomeAnswered, Value: v, Err: err, Latency: time.Since(j.enqueued)}
			switch {
			case errors.Is(err, ErrBudgetExpired):
				r.Outcome = OutcomeSkipped
			case err != nil:
				r.Outcome = OutcomePeerFailure
			}
			j.a.Done(r)
		}
	}
}

// QueueDepth returns the number of jobs outstanding on one component:
// those waiting in its mailbox plus the one its worker is executing.
// This is the load signal admission and routing policies act on; the
// value is a point-in-time sample.
func (cl *Cluster) QueueDepth(comp int) int {
	c := cl.comps[comp]
	d := len(c.mailbox)
	if c.busy.Load() {
		d++
	}
	return d
}

// QueueCap returns each mailbox's bound (Options.QueueLen).
func (cl *Cluster) QueueCap() int { return cap(cl.comps[0].mailbox) }

// Close shuts the cluster down: it waits for in-flight Calls, then
// stops the workers. Call returns ErrClosed afterwards.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		cl.Gather.Close()
		close(cl.quit)
		cl.wg.Wait()
	})
}
