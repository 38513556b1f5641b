package netsvc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/breaker"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// The gather core's sentinels: Call after Close; a sub-operation shed at
// a full outstanding window or by a busy server; a sub-operation or an
// append batch refused because its peer's breaker is not closed and no
// healthy peer could take it.
var (
	ErrClosed    = service.ErrClosed
	ErrQueueFull = service.ErrQueueFull
	ErrPeerDown  = service.ErrComponentDown
)

// dialTimeout bounds each connection attempt, a client's included.
const dialTimeout = 2 * time.Second

// retryBudget caps how many times one sub-operation may be re-dispatched
// onto a healthy peer after a peer-level failure (dial error, connection
// failure, open breaker), always within the propagated deadline.
const retryBudget = 1

// AggregatorOptions configures an Aggregator.
type AggregatorOptions struct {
	// Policy selects the gather behaviour (service.WaitAll,
	// service.PartialGather, service.Hedged).
	Policy service.Policy
	// Deadline bounds gathering for PartialGather and is the default
	// Call timeout otherwise (default 1s).
	Deadline time.Duration
	// MaxOutstanding caps in-flight sub-operations per component — the
	// QueueCap/QueueDepth bound the frontend's load snapshot and queue
	// watermarks act on (default 128).
	MaxOutstanding int
	// HedgeFloor is the minimum hedge delay before the p95 estimator
	// has warmed up (default 1ms).
	HedgeFloor time.Duration
	// Dial overrides the transport dial (default net.DialTimeout over
	// TCP) — the seam fault injection and connection tests hook.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Breaker configures the per-peer circuit breakers, each peer's only
	// failure state; zero fields take the breaker package defaults (trip
	// after 3 consecutive failures, 200ms cooldown). The cooldown also
	// paces the redials of a peer whose breaker is open.
	Breaker breaker.Config
	// Metrics, when set, publishes the gather core's netsvc_* series
	// (see service.GatherConfig.Metrics) and the ingest-forward counter.
	Metrics *obs.Registry
}

func (o AggregatorOptions) withDefaults() AggregatorOptions {
	if o.MaxOutstanding <= 0 {
		o.MaxOutstanding = 128
	}
	if o.Dial == nil {
		o.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return o
}

// AggregatorStats are the gather core's counters (SubOps, Hedges,
// Retries, Faults, BreakerOpens, P999Ms) plus the peers' re-dials.
type AggregatorStats struct {
	service.Stats
	Reconnects int64 // re-dials after a connection failure
}

// Aggregator is the scatter/gather client over n component servers: the
// gather core (service.Gather, whose Inflight, EstimatedP95, Deadline,
// Components, SetRouter and BreakerState it exposes) over multiplexed
// TCP connections. It implements frontend.Backend, so the frontend
// drives it exactly as it drives a service.Cluster.
type Aggregator struct {
	*service.Gather
	opts   AggregatorOptions
	peers  []*peer
	nextID atomic.Uint64

	// ingestRR round-robins unrouted append batches across components.
	ingestRR atomic.Uint64
	mIngests *obs.Counter
}

// NewAggregator returns an aggregator over one address per component.
// Connections are dialed lazily; use WaitReady to block until every
// component answers.
func NewAggregator(addrs []string, opts AggregatorOptions) (*Aggregator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("netsvc: no component addresses")
	}
	opts = opts.withDefaults()
	a := &Aggregator{opts: opts}
	if opts.Metrics != nil {
		a.mIngests = opts.Metrics.Counter("netsvc_ingest_forwarded_total")
	}
	a.Gather = service.NewGather(aggTransport{a}, service.GatherConfig{
		N:           len(addrs),
		Policy:      opts.Policy,
		Deadline:    opts.Deadline,
		HedgeFloor:  opts.HedgeFloor,
		RetryBudget: retryBudget,
		Breaker:     opts.Breaker,
		OnBreakerState: func(target int, s breaker.State) {
			if s == breaker.Open {
				// A tripped breaker starts the background prober even when
				// the peer's connection is still nominally alive (a stalled
				// or partitioned peer), so recovery never depends on fresh
				// request traffic.
				a.peers[target].kickReconnector()
			}
		},
		Metrics: opts.Metrics,
		Prefix:  "netsvc",
		Label:   func(target int) string { return fmt.Sprintf("peer=%q", addrs[target]) },
	})
	for i, addr := range addrs {
		a.peers = append(a.peers, &peer{
			agg:     a,
			addr:    addr,
			idx:     i,
			br:      a.Breaker(i),
			closeCh: make(chan struct{}),
		})
	}
	return a, nil
}

// WaitReady blocks until every component holds a connection or the
// timeout elapses — the race-free way to start an aggregator before its
// component processes are certain to be listening. It dials a peer whose
// breaker is closed and leaves an open one to its reconnector.
func (a *Aggregator) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, p := range a.peers {
		for {
			err := ErrPeerDown
			if p.br.State() == breaker.Closed {
				if err = p.redial(); err == nil {
					break
				}
			}
			if refusal(err) || !time.Now().Before(deadline) {
				return fmt.Errorf("netsvc: component %s not ready: %w", p.addr, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// QueueCap returns the per-component outstanding window
// (AggregatorOptions.MaxOutstanding).
func (a *Aggregator) QueueCap() int { return a.opts.MaxOutstanding }

// QueueDepth returns the sub-operations currently outstanding on one
// component — the aggregator-side load signal admission and routing
// policies act on.
func (a *Aggregator) QueueDepth(comp int) int {
	return int(a.peers[comp].outstanding.Load())
}

// Ingest forwards one append batch to its owning component and waits
// for the acknowledgement. Unlike query sub-operations, an append is
// never rerouted to a healthier peer — the rows have exactly one home
// shard, and staging them elsewhere would silently fork the dataset —
// so an unhealthy owner rejects the batch immediately (IngestRejected)
// and the producer retries later. A request with Subset < 0 is
// assigned a component round-robin. The returned reply always carries
// the caller's ID and the subset the batch landed on; it is never nil.
func (a *Aggregator) Ingest(ctx context.Context, req *wire.IngestRequest) *wire.IngestReply {
	fail := func(status uint8, msg string) *wire.IngestReply {
		return &wire.IngestReply{ID: req.ID, Subset: req.Subset, Status: status, Err: msg}
	}
	n := len(a.peers)
	sub := *req
	sub.ID = a.nextID.Add(1)
	if sub.Subset < 0 {
		sub.Subset = int32((a.ingestRR.Add(1) - 1) % uint64(n))
	}
	target := int(sub.Subset) % n
	p := a.peers[target]
	if p.br.State() != breaker.Closed {
		return fail(wire.IngestRejected, ErrPeerDown.Error())
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.Deadline())
		defer cancel()
	}
	ack := make(chan answer[*wire.IngestReply], 1)
	p.send(sub.ID, &sub, pending{ack: ack})
	var got answer[*wire.IngestReply]
	select {
	case <-ctx.Done():
		return fail(wire.IngestErr, ctx.Err().Error())
	case got = <-ack:
	}
	if got.err != nil {
		if !refusal(got.err) {
			a.Fault(nil, target, int(sub.Subset))
		}
		return fail(wire.IngestErr, got.err.Error())
	}
	p.br.Success()
	if a.mIngests != nil {
		a.mIngests.Inc()
	}
	out := *got.rep
	out.ID = req.ID
	out.Subset = sub.Subset
	return &out
}

// refusal reports a send error that is no evidence against the peer:
// the aggregator closed, or a probe replaced the connection its waiter
// was on.
func refusal(err error) bool { return errors.Is(err, ErrClosed) }

// OpenBreakers returns the addresses of peers whose circuit breaker is
// not closed — the degraded-health signal /healthz exposes.
func (a *Aggregator) OpenBreakers() []string {
	var open []string
	for _, i := range a.Gather.OpenBreakers() {
		open = append(open, a.peers[i].addr)
	}
	return open
}

// Stats returns a snapshot of the aggregator's counters.
func (a *Aggregator) Stats() AggregatorStats {
	st := AggregatorStats{Stats: a.Gather.Stats()}
	for _, p := range a.peers {
		st.Reconnects += p.reconnects.Load()
	}
	return st
}

// Call fans the request template out to every component and gathers
// sub-results according to the gather policy. payload must be a
// *wire.Request with the payload of its kind set (wire.Request.CheckPayload;
// one without is an error before any dispatch); the aggregator stamps
// per-sub-operation IDs, the subset, the absolute deadline from the
// context, and the frontend-selected SLO class and ladder level (read
// from the context via the frontend package's conventions). The
// returned slice has one entry per subset in subset order; Value holds
// the *wire.SubReply of answered sub-operations.
//
// Failure handling: a sub-operation whose peer's breaker is open goes to
// a healthy peer, or fails fast with ErrPeerDown when none is;
// peer-level failures are re-dispatched to a healthy peer while the
// retry budget and the propagated deadline allow; what still fails
// surfaces as an errored SubResult for the compose path's accuracy-aware
// degradation.
func (a *Aggregator) Call(ctx context.Context, payload interface{}) ([]service.SubResult, error) {
	tmpl, ok := payload.(*wire.Request)
	if !ok {
		return nil, fmt.Errorf("netsvc: Call payload must be *wire.Request, got %T", payload)
	}
	if err := tmpl.CheckPayload(); err != nil {
		return nil, err
	}
	tr := obs.TraceFrom(ctx)
	// stamp is what every sub-request of this fan-out shares. The
	// frontend's call record overrides the template's class, and its level
	// once a controller chose one; a direct caller (netcompare's bare
	// rows) keeps the request's own, so a client-stamped SLO survives.
	stamp := *tmpl
	stamp.Seq = tmpl.ID   // correlate sub-operations with their parent request
	stamp.Trace = tr.ID() // nil-safe: 0 propagates "untraced"
	if lv, ok := frontend.LevelFrom(ctx); ok {
		stamp.Level = int16(lv)
	}
	if s, ok := frontend.SLOFrom(ctx); ok {
		stamp.SLO, stamp.MinAccuracy = uint8(s.Kind), s.MinAccuracy
	}
	subs, err := a.Gather.Call(ctx, &stamp)
	// Per winning sub-reply: stitch the server-side queue/exec spans it
	// carried under the subset's sub-op span, and fold their costs plus
	// the reply frame's own bytes into the request's cost account (the
	// sub-request frame was counted by the component server, in the exec
	// span's WireBytes). Both are nil, their methods no-ops, when off.
	acct := cost.AccountFrom(ctx)
	if tr == nil && acct == nil {
		return subs, err
	}
	for i := range subs {
		rep, ok := subs[i].Value.(*wire.SubReply)
		if !ok {
			continue
		}
		for _, sp := range rep.Spans {
			kind := obs.SpanServerQueue
			if sp.Kind == wire.SpanExec {
				kind = obs.SpanServerExec
			}
			tr.AddRemote(kind, int32(i), sp.Start, sp.Dur)
			acct.Add(cost.Usage{CPUNs: sp.Cost.CPUNs, Scanned: sp.Cost.Scanned,
				QueueNs: sp.Cost.QueueNs, WireBytes: sp.Cost.WireBytes})
		}
		acct.AddWireBytes(uint64(rep.FrameLen))
	}
	return subs, err
}

// aggTransport is the gather core's transport over the peers. The
// peers' reconnectors are the breakers' probers (their dial is the
// half-open probe), so a query sub-operation never is.
type aggTransport struct{ *Aggregator } // QueueDepth is the Aggregator's

func (aggTransport) Probe(int, *breaker.Breaker) bool { return false }

// Send completes the fan-out's stamp for one subset and transmits it.
// ctx is the gather's call record; only its deadline is read, so a
// sub-operation costs it no channel and no timer.
func (a aggTransport) Send(ctx context.Context, at service.Attempt, payload interface{}) bool {
	p := a.peers[at.Target]
	if p.outstanding.Add(1) > int64(a.opts.MaxOutstanding) {
		p.outstanding.Add(-1)
		at.Done(service.Result{Outcome: service.OutcomeShed, Err: ErrQueueFull})
		return false
	}
	sub := *payload.(*wire.Request)
	sub.ID = a.nextID.Add(1)
	sub.Subset = int32(at.Subset)
	// The call deadline only ever tightens a deadline the request
	// already carries (a client-side l_spe): each hop propagates the
	// strictest absolute budget downward.
	if dl, _ := ctx.Deadline(); sub.Deadline == 0 || dl.UnixNano() < sub.Deadline {
		sub.Deadline = dl.UnixNano()
	}
	return p.send(sub.ID, &sub, pending{peer: p, at: at, sent: time.Now()})
}

// subDone reports a sub-operation's outcome to its attempt: the
// sub-reply's status, classified, or the failure that preempted it.
func (d pending) subDone(rep *wire.SubReply, err error) {
	d.peer.outstanding.Add(-1)
	if err != nil {
		out := service.OutcomePeerFailure
		if refusal(err) {
			out = service.OutcomeDown
		}
		d.at.Done(service.Result{Outcome: out, Err: err})
		return
	}
	r := service.Result{Latency: time.Since(d.sent)}
	switch rep.Status {
	case wire.StatusOK:
		r.Outcome, r.Value = service.OutcomeAnswered, rep
	case wire.StatusSkipped:
		r.Outcome = service.OutcomeSkipped
	case wire.StatusBusy:
		// A server-side shed is the same condition as the
		// aggregator-side outstanding window: report the sentinel so
		// composed replies classify it StatusBusy, not a generic error.
		r.Outcome, r.Err = service.OutcomeShed, ErrQueueFull
	default:
		r.Outcome, r.Err = service.OutcomeAppError, fmt.Errorf("netsvc: component %d: %s", d.at.Target, rep.Err)
	}
	if r.Value == nil {
		// Only an answer's record travels on; the status was all this one
		// carried.
		wire.ReleaseSubReply(rep)
	}
	d.at.Done(r)
}

// Close tears down every connection; Call returns ErrClosed afterwards
// and outstanding sub-operations fail over to their gather policy's
// error path.
func (a *Aggregator) Close() {
	for _, p := range a.peers {
		p.close()
	}
	a.Gather.Close()
}

// peer is the one connection plus failure-domain state for one
// component server: its circuit breaker, the only health state it has,
// and background reconnector.
type peer struct {
	agg         *Aggregator
	addr        string
	idx         int
	outstanding atomic.Int64
	reconnects  atomic.Int64

	br           *breaker.Breaker // the gather core's, for this component
	reconnecting atomic.Bool
	closed       atomic.Bool
	closeCh      chan struct{}

	mu sync.Mutex
	pc *peerConn
}

// conn returns the live connection, dialing when it is dead or missing.
// Only a peer whose breaker is closed is asked (admit evicts an open
// one), so a failed dial is the caller's to count; it also starts the
// reconnector.
func (p *peer) conn() (*peerConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if p.pc != nil && !p.pc.isDead() {
		return p.pc, nil
	}
	c, err := p.agg.opts.Dial(p.addr, dialTimeout)
	if err != nil {
		p.kickReconnector()
		return nil, err
	}
	p.install(c)
	return p.pc, nil
}

// redial is conn for the peer's own recovery: a failed dial counts
// against the breaker.
func (p *peer) redial() error {
	_, err := p.conn()
	if err != nil && !refusal(err) {
		p.agg.Fault(nil, p.idx, -1)
	}
	return err
}

// install makes an established connection the peer's, starts its read
// loop and returns (and counts) the one it replaced. Caller holds p.mu.
func (p *peer) install(c net.Conn) (replaced *peerConn) {
	replaced, p.pc = p.pc, newPeerConn(c, p.died)
	if replaced != nil {
		p.reconnects.Add(1)
	}
	return replaced
}

// died is told of a connection's death that was not a Close. A death
// that failed no waiter counts against the breaker here (one that did
// counts through them), so a peer that drops every connection trips it.
func (p *peer) died(idle bool) {
	if idle {
		p.agg.Fault(nil, p.idx, -1)
	}
	p.kickReconnector()
}

// kickReconnector starts the background reconnect/probe loop unless it
// is already running or the peer is closed. It is invoked on every
// connection death, failed dial, and breaker trip.
func (p *peer) kickReconnector() {
	if !p.closed.Load() && p.reconnecting.CompareAndSwap(false, true) {
		go p.reconnectLoop()
	}
}

// reconnectLoop is the traffic-independent recovery path, paced by the
// breaker alone. While it is closed the loop redials at once, so a dead
// peer trips it within a few counted dials. While it is open the loop
// waits one cooldown and dials as the half-open probe; a landed probe
// installs the connection and re-closes the breaker.
func (p *peer) reconnectLoop() {
	defer func() {
		p.reconnecting.Store(false)
		if p.br.State() != breaker.Closed {
			p.kickReconnector() // a trip raced this exit: an open breaker keeps its prober
		}
	}()
	for {
		if p.br.State() == breaker.Closed {
			if err := p.redial(); err == nil || refusal(err) {
				return
			}
			continue
		}
		select {
		case <-p.closeCh:
			return
		case <-time.After(p.br.Cooldown()):
		}
		if p.br.State() == breaker.Closed || !p.br.Allow() {
			continue
		}
		c, err := p.agg.opts.Dial(p.addr, dialTimeout)
		if err != nil {
			p.agg.Fault(nil, p.idx, -1)
			continue
		}
		p.mu.Lock()
		if p.closed.Load() {
			p.mu.Unlock()
			c.Close()
			return
		}
		old := p.install(c)
		p.mu.Unlock()
		if old != nil {
			// The probe replaces a connection that may still be live (a
			// stalled peer): its waiters are refused (OutcomeDown:
			// retryable, no evidence against the peer) and it is closed,
			// not orphaned. Outside p.mu, since a refused waiter's retry
			// re-enters conn. A dead one ignores this.
			old.fail(ErrClosed)
		}
		p.br.Success()
		return
	}
}

// pending is who waits for the reply to one in-flight frame — a
// sub-operation's gather attempt (peer set: the attempt, the peer it was
// sent to and when, held by value so a dispatch allocates no callback),
// or the channel of a caller blocked on an append batch (ack) or a
// Client's whole-service request (reply) — delivered to exactly once:
// reply, connection failure, or close.
type pending struct {
	peer  *peer
	at    service.Attempt
	sent  time.Time
	ack   chan answer[*wire.IngestReply]
	reply chan answer[*wire.Reply]
}

// answer is what a channel waiter receives: the decoded reply, or why
// the connection failed first. Waiter channels are buffered for the one
// delivery, so delivering never blocks a read loop.
type answer[T any] struct {
	rep T
	err error
}

func (d pending) fail(err error) {
	switch {
	case d.peer != nil:
		d.subDone(nil, err)
	case d.ack != nil:
		d.ack <- answer[*wire.IngestReply]{err: err}
	case d.reply != nil:
		d.reply <- answer[*wire.Reply]{err: err}
	}
}

// send registers a record's callback on the peer's connection and writes
// the record as one frame. False: not written, and the callback already
// failed.
func (p *peer) send(id uint64, rec interface{}, deliver pending) bool {
	pc, err := p.conn()
	if err == nil && !pc.register(id, deliver) {
		// The connection died between conn and registration; one retry
		// against a fresh one, then give up.
		if pc, err = p.conn(); err == nil && !pc.register(id, deliver) {
			err = errors.New("netsvc: connection lost")
		}
	}
	if err != nil {
		deliver.fail(err)
		return false
	}
	return pc.write(rec) == nil
}

func (p *peer) close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.closeCh)
	p.mu.Lock() // after the flag: a conn() racing us either sees it or installed pc
	pc := p.pc
	p.mu.Unlock()
	if pc != nil {
		pc.fail(ErrClosed)
	}
}

// peerConn is one multiplexed connection — an aggregator's to a
// component server, or a Client's to a front server: concurrent requests
// are matched to replies by ID.
type peerConn struct {
	w      connWriter
	onDead func(idle bool) // told of a death that was not a Close, and whether it failed no waiter

	pmu     sync.Mutex
	pending map[uint64]pending
	dead    bool
}

// newPeerConn wraps an established connection and starts its read loop.
func newPeerConn(c net.Conn, onDead func(idle bool)) *peerConn {
	pc := &peerConn{w: connWriter{c: c, timeout: writeDeadline}, pending: map[uint64]pending{}, onDead: onDead}
	go pc.readLoop()
	return pc
}

// write sends one record whose waiter is already registered. A failed
// write kills the connection, which fails every waiter — that one
// included.
func (pc *peerConn) write(rec interface{}) error {
	err := pc.w.write(rec)
	if err != nil {
		pc.fail(err)
	}
	return err
}

func (pc *peerConn) isDead() bool {
	pc.pmu.Lock()
	defer pc.pmu.Unlock()
	return pc.dead
}

func (pc *peerConn) register(id uint64, deliver pending) bool {
	pc.pmu.Lock()
	defer pc.pmu.Unlock()
	if pc.dead {
		return false
	}
	pc.pending[id] = deliver
	return true
}

// take removes and returns the callback registered for a reply's ID
// (zero for an unknown or already-failed one).
func (pc *peerConn) take(id uint64) pending {
	pc.pmu.Lock()
	defer pc.pmu.Unlock()
	deliver := pc.pending[id]
	delete(pc.pending, id)
	return deliver
}

// readLoop dispatches reply frames to their pending callbacks until
// the connection fails.
func (pc *peerConn) readLoop() {
	fr := newFrameReader(pc.w.c, frameDeadline)
	var err error
	for err == nil {
		var buf []byte
		if buf, err = fr.next(); err == nil {
			err = pc.dispatch(buf)
		}
	}
	pc.fail(err)
}

// dispatch hands one reply frame to its waiter. Sub-replies, composed
// replies and ingest acknowledgements can share a connection; the kind
// byte routes before any payload decoding.
func (pc *peerConn) dispatch(buf []byte) error {
	kind, err := wire.FrameKind(buf)
	if err != nil {
		return err
	}
	switch kind {
	case wire.FrameIngestReply:
		ack, err := wire.DecodeIngestReply(buf)
		if err == nil {
			if ch := pc.take(ack.ID).ack; ch != nil {
				ch <- answer[*wire.IngestReply]{rep: ack}
			}
		}
		return err
	case wire.FrameReply:
		rep, err := wire.DecodeReply(buf)
		if err == nil {
			if ch := pc.take(rep.ID).reply; ch != nil {
				ch <- answer[*wire.Reply]{rep: rep}
			}
		}
		return err
	}
	rep, err := wire.DecodeSubReply(buf)
	if err == nil {
		if d := pc.take(rep.ID); d.peer != nil {
			d.subDone(rep, nil)
		}
	}
	return err
}

// fail marks the connection dead and fails every waiter exactly once.
func (pc *peerConn) fail(err error) {
	pc.pmu.Lock()
	if pc.dead {
		pc.pmu.Unlock()
		return
	}
	pc.dead = true
	pending := pc.pending
	pc.pending = nil
	pc.pmu.Unlock()
	pc.w.c.Close()
	if !errors.Is(err, ErrClosed) {
		pc.onDead(len(pending) == 0)
	}
	for _, deliver := range pending {
		deliver.fail(fmt.Errorf("netsvc: connection failed: %w", err))
	}
}
