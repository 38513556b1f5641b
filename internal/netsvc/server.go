package netsvc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/audit"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/wire"
)

// Handler serves one sub-operation on a component server. The server
// fills in the reply's ID, Subset and Kind from the request; handlers
// must be safe for concurrent use when Workers > 1. The context
// carries the request's propagated deadline: handlers running
// Algorithm 1 should stop improving when the budget is gone.
//
// On a Server the request, every string and slice of it, and the context
// are valid only until the handler returns: the server decodes each
// request into a pooled record, beside the job that is its context, and
// reuses both once the reply is written. A handler that needs any of it
// later copies it.
type Handler func(ctx context.Context, req *wire.Request) *wire.SubReply

// ServerOptions configures a Server or FrontServer.
type ServerOptions struct {
	// Workers is the worker-pool width: by default 1 on a Server (the
	// component model's single-server FIFO queue) and 64 on a
	// FrontServer, whose requests each hold one for a whole fan-out.
	Workers int
	// QueueLen bounds pending requests across connections (default 256).
	// A full queue answers StatusBusy immediately, surfacing overload
	// instead of buffering it invisibly.
	QueueLen int
	// Tracer, when non-nil on a FrontServer, records a decision trace
	// per whole-service request (propagating the client's trace ID, or
	// minting one). Component Servers need no recorder: they attach
	// queue/exec spans to traced sub-replies on the wire instead.
	Tracer *obs.Recorder

	// A FrontServer's planes, each nil meaning off: the result cache,
	// the SLO tracker (keyed by the request's wire tenant), the config
	// of the auditor the server starts and closes, and the cost table.
	Cache *rescache.Cache
	SLO   *obs.SLOTracker
	Audit *audit.Config
	Costs *cost.Table
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 256
	}
	return o
}

// ServerStats counts a server's request outcomes.
type ServerStats struct {
	Requests  int64 // dequeued by a worker
	Abandoned int64 // deadline already passed at dequeue: answered Skipped, no work done
	Shed      int64 // answered StatusBusy at a full queue
	Ingests   int64 // append batches answered inline on connection readers
	Refused   int64 // connections closed at accept, over the connection cap

	ReadTimeouts  int64 // connections closed when a started frame missed frameDeadline
	WriteTimeouts int64 // connections closed when a reply's write missed writeDeadline
}

// connCap bounds a server's open connections (each a reader goroutine
// and its frame buffer); a deployment opens one per aggregator or client.
const connCap = 1024

// srvCore is the shared listener/worker machinery of Server and
// FrontServer; the two differ only in how they respond.
type srvCore struct {
	opts ServerOptions
	// respond handles one live job — its request, its queue entry time
	// (for queue-wait spans), and its context: the job itself — and
	// returns the reply record for the connection's writer to encode;
	// expired answers a job whose deadline has already passed; busy
	// answers a job shed at the queue bound. A Server's are
	// *wire.SubReply, pooled records the job holds (job.reply) until
	// endJob releases them; a FrontServer's *wire.Reply. A failed reply
	// write closes the connection; its reader observes that and exits.
	respond func(j *job) interface{}
	expired func(j *job) interface{}
	busy    func(j *job) interface{}

	// graceful extends the work deadline with gather slack: a front
	// server's budget bounds the components' work (propagated in the
	// wire request), but the replies computed within that budget still
	// need time to travel back and be composed — without the grace,
	// work that legitimately fills the budget always loses the gather
	// race by a transport epsilon.
	graceful bool
	// recycles: requests are decoded into pooled records (compJob),
	// recycled once answered. A component server's are; a front server's
	// may be kept by its planes, so each is a one-shot object.
	recycles bool

	queue   chan *job
	quit    chan struct{}
	onClose func() // run by Close last: a front server closes its auditor

	// connCap, frameDeadline and writeDeadline; a test lowers them
	// before Serve.
	maxConns     int
	frameTimeout time.Duration
	writeTimeout time.Duration

	mu       sync.Mutex
	lns      []net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool

	workers sync.WaitGroup
	readers sync.WaitGroup

	// ingest, when set, answers v5 append batches (see SetIngest); it
	// is installed before Serve and read without synchronization.
	ingest IngestHandler

	requests  atomic.Int64
	abandoned atomic.Int64
	shed      atomic.Int64
	ingests   atomic.Int64
	refused   atomic.Int64
	pending   atomic.Int64 // queued + in-flight requests (drain signal)

	readTimeouts  atomic.Int64
	writeTimeouts atomic.Int64
}

func newSrvCore(opts ServerOptions) *srvCore {
	opts = opts.withDefaults()
	s := &srvCore{
		opts:         opts,
		queue:        make(chan *job, opts.QueueLen),
		quit:         make(chan struct{}),
		maxConns:     connCap,
		frameTimeout: frameDeadline,
		writeTimeout: writeDeadline,
		conns:        map[net.Conn]struct{}{},
	}
	for w := 0; w < opts.Workers; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Serve accepts connections on l until the server is closed or the
// listener fails. It blocks; run it in a goroutine.
func (s *srvCore) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("netsvc: server closed")
	}
	s.lns = append(s.lns, l)
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.closed || s.draining
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		if len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			s.refused.Add(1) // before Close: a peer that sees EOF sees the count
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.readers.Add(1)
		s.mu.Unlock()
		go s.readConn(c)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *srvCore) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// readConn decodes request frames off one connection and enqueues them
// on the bounded worker queue. A protocol error closes the connection.
func (s *srvCore) readConn(c net.Conn) {
	defer s.readers.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	sc := &connWriter{c: c, timeout: s.writeTimeout, expired: &s.writeTimeouts}
	fr := newFrameReader(c, s.frameTimeout)
	for {
		buf, err := fr.next()
		if err != nil {
			if timedOut(err) {
				s.readTimeouts.Add(1)
			}
			return
		}
		// One connection carries both query and append frames; the kind
		// byte routes before any payload decoding. Append batches are
		// answered inline on this reader — staging is a short, bounded
		// mutation that must not queue behind budgeted query work.
		kind, err := wire.FrameKind(buf)
		if err != nil {
			return
		}
		if kind == wire.FrameIngest {
			in, err := wire.DecodeIngestRequest(buf)
			if err != nil {
				return
			}
			s.serveIngest(sc, in)
			continue
		}
		// The request is decoded into the job that serves it: a pooled
		// record on a component server, one object on a front server.
		var j *job
		if s.recycles {
			j, err = decodeCompJob(buf)
		} else {
			j, err = decodeJob(buf)
		}
		if err != nil {
			return
		}
		j.conn, j.enq = sc, time.Now().UnixNano()
		// pending is raised before the enqueue so a drain never observes
		// zero while a just-enqueued job is still unserved.
		s.pending.Add(1)
		select {
		case s.queue <- j:
		default:
			s.pending.Add(-1)
			s.shed.Add(1)
			_ = sc.write(s.busy(j)) // a failed write closed c: the next read ends this loop
			s.endJob(j)
		}
	}
}

func (s *srvCore) worker() {
	defer s.workers.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.serveJob(j)
			s.pending.Add(-1)
		}
	}
}

func (s *srvCore) serveJob(j *job) {
	s.requests.Add(1)
	if j.dl = j.req.Deadline; j.dl != 0 {
		// The propagated budget is already gone: abandon the work
		// entirely — the aggregator has (or will have) composed without
		// this subset, so computing would be pure waste.
		rem := time.Duration(j.dl - time.Now().UnixNano())
		if rem <= 0 {
			s.abandoned.Add(1)
			_ = j.conn.write(s.expired(j)) // see respond: the reader notices
			s.endJob(j)
			return
		}
		if s.graceful {
			j.dl += int64(rem/4 + 2*time.Millisecond)
		}
	}
	_ = j.conn.write(s.respond(j)) // see respond: the reader notices
	s.endJob(j)
}

// endJob ends a job whose reply is written, whether it was served, shed
// or expired. Nothing on this server reads the reply or the request
// again: a component server releases its pooled reply and recycles the
// request's record.
func (s *srvCore) endJob(j *job) {
	if j.reply != nil {
		wire.ReleaseSubReply(j.reply)
		j.reply = nil
	}
	j.finish()
	if s.recycles {
		recycle(j)
	}
}

// Stats returns the server's request counters.
func (s *srvCore) Stats() ServerStats {
	return ServerStats{
		Requests:  s.requests.Load(),
		Abandoned: s.abandoned.Load(),
		Shed:      s.shed.Load(),
		Ingests:   s.ingests.Load(),
		Refused:   s.refused.Load(),

		ReadTimeouts:  s.readTimeouts.Load(),
		WriteTimeouts: s.writeTimeouts.Load(),
	}
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, waits up to timeout for every queued and in-flight
// request to be answered, then closes. It reports whether the drain
// completed before the deadline (false means remaining work was cut
// off by the final Close). Safe to call more than once; Close after
// Shutdown is a no-op.
func (s *srvCore) Shutdown(timeout time.Duration) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true
	}
	s.draining = true
	lns := s.lns
	s.lns = nil
	s.mu.Unlock()
	for _, l := range lns {
		l.Close()
	}
	deadline := time.Now().Add(timeout)
	drained := false
	for {
		if s.pending.Load() == 0 {
			drained = true
			break
		}
		if !time.Now().Before(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	return drained
}

// Close stops accepting, closes open connections, and stops the
// workers. Safe to call more than once.
func (s *srvCore) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lns := s.lns
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range lns {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	close(s.quit)
	s.workers.Wait()
	s.readers.Wait()
	if s.onClose != nil {
		s.onClose()
	}
}

// Server is a component server: one shard-holding process answering
// sub-operation requests with sub-replies.
type Server struct {
	*srvCore
	h Handler
}

// NewServer returns a component server around a workload handler.
func NewServer(h Handler, opts ServerOptions) *Server {
	s := &Server{h: h}
	s.srvCore = newSrvCore(opts)
	s.srvCore.recycles = true
	s.srvCore.respond = func(j *job) interface{} {
		req := j.req
		exec0 := time.Now()
		// On a traced request the job's context answers its account, so
		// the handler's engine can report the data units it touched.
		j.metered = req.Trace != 0
		rep := h(j, req)
		rep.ID, rep.Subset, rep.Kind = req.ID, req.Subset, req.Kind
		if req.Trace != 0 {
			// Traced request: ship the server-side queue wait and handler
			// execution back as wire spans for the aggregator to stitch,
			// each carrying its resource cost (queue wait on the queue
			// span; CPU, scanned units, and the request frame's wire bytes
			// on the exec span). The skeleton's reply has room for both in
			// its pooled record (wire.NewSubReply). Untraced requests pay
			// nothing, not even the two time stamps' encoding.
			queueWait := exec0.UnixNano() - j.enq
			execDur := time.Since(exec0)
			rep.Spans = append(rep.Spans,
				wire.Span{Kind: wire.SpanQueue, Start: j.enq, Dur: queueWait,
					Cost: wire.Cost{QueueNs: uint64(queueWait)}},
				wire.Span{Kind: wire.SpanExec, Start: exec0.UnixNano(), Dur: int64(execDur),
					Cost: wire.Cost{CPUNs: uint64(execDur), Scanned: j.acct.Usage().Scanned, WireBytes: uint64(req.FrameLen)}})
		}
		return rep
	}
	s.srvCore.expired = func(j *job) interface{} { return statusReply(j, wire.StatusSkipped, "") }
	s.srvCore.busy = func(j *job) interface{} { return statusReply(j, wire.StatusBusy, "server queue full") }
	return s
}

// statusReply answers a component job with a status and no payload, in
// a pooled record the job holds until endJob releases it.
func statusReply(j *job, status uint8, msg string) *wire.SubReply {
	req := j.req
	rep := wire.NewSubReply(req.Kind, false)
	rep.ID, rep.Subset, rep.Status, rep.Err = req.ID, req.Subset, status, msg
	j.reply = rep
	return rep
}

// FrontServer is an aggregator process's client-facing listener: it
// answers whole-service requests with composed replies, running every
// request through the accuracy-aware frontend pipeline and, with a
// Cache, through the accuracy-tagged result cache; it forwards append
// batches to their owning components.
type FrontServer struct {
	*srvCore
	agg    *Aggregator
	fe     *frontend.Frontend
	cache  *rescache.Cache
	tracer *obs.Recorder
	// releaseSubs: the frontend drives this server's own aggregator, so
	// every answered sub-reply is a pooled record no one else holds, and
	// serveMiss releases it once composed. A decorated backend may keep
	// what it returned, so under one nothing is released.
	releaseSubs bool

	// keyBufs pools canonical-key scratch buffers (*[]byte: a pointer
	// boxes into the pool's interface without allocating, a slice header
	// would not) so the cache lookup path does not allocate per request.
	keyBufs sync.Pool

	// Ingest-driven invalidation state (see NotifyEpochSwap): the highest
	// component data epoch observed and the flag serializing re-warms.
	dataEpoch atomic.Uint64
	rewarming atomic.Bool

	// The SLO, audit and cost planes (ServerOptions): each nil when off,
	// and every call site is nil-safe so the off state costs nothing.
	slo     *obs.SLOTracker
	auditor *audit.Auditor
	costs   *cost.Table
}

// NewFront's refusals. Without a controller the frontend would tag
// approximate answers with accuracy 1, voiding the cache's floor rule;
// without a tracer a cost table would meter only bytes and wall time.
var (
	ErrCacheNeedsController = errors.New("netsvc: result cache requires a frontend with a degradation controller (entries are accuracy-tagged by its calibrated level estimates)")
	ErrCostNeedsTracer      = errors.New("netsvc: cost attribution requires a Tracer (sub-operation costs ride traced spans)")
)

// NewFront wraps an aggregator and the frontend in front of it, with
// the planes opts names. A nil front is a frontend with no controller
// and no admission policy on home placement: every request is admitted,
// served at the level it asks for, and settled by the degrade rule at
// base accuracy 1. The planes are validated before any worker starts:
// an error (the two above, or audit.New's wrapped) leaves none running.
func NewFront(agg *Aggregator, front *frontend.Frontend, opts ServerOptions) (*FrontServer, error) {
	if opts.Workers <= 0 {
		opts.Workers = 64
	}
	if front == nil {
		front, _ = frontend.New(agg, frontend.Options{Replicas: 1}) // New never fails
	}
	own, _ := front.Backend().(*Aggregator)
	s := &FrontServer{agg: agg, fe: front, tracer: opts.Tracer, releaseSubs: own != nil && own == agg}
	if err := s.install(opts); err != nil {
		return nil, err
	}
	s.srvCore = newSrvCore(opts)
	s.srvCore.graceful = true
	s.srvCore.ingest = s.forwardIngest
	s.srvCore.onClose = func() { s.auditor.Close() }
	s.srvCore.respond = func(j *job) interface{} {
		rep, _, row := s.pass(j, originClient)
		// The reply frame's own bytes are part of the request's wire cost,
		// and the row must be on the table before the client can have its
		// reply: close it on the frame's exact size, ahead of the encode.
		row.close(rep.FrameSize())
		return rep
	}
	s.srvCore.expired = func(j *job) interface{} {
		return replyTo(j.req, wire.ReplyErr, "deadline expired before service")
	}
	s.srvCore.busy = func(j *job) interface{} {
		return replyTo(j.req, wire.ReplyRejected, "aggregator queue full")
	}
	return s, nil
}

// install validates the planes p names, then installs them; a plane p
// leaves nil stays as it was. NewFront and the bench/ shims share it.
func (s *FrontServer) install(p ServerOptions) error {
	if p.Cache != nil && s.fe.Controller() == nil {
		return ErrCacheNeedsController
	}
	if p.Costs != nil && s.tracer == nil {
		return ErrCostNeedsTracer
	}
	if p.Audit != nil {
		a, err := audit.New(s.auditConfig(*p.Audit))
		if err != nil {
			return fmt.Errorf("netsvc: audit plane: %w", err)
		}
		s.auditor = a
	}
	if p.Cache != nil {
		s.cache = p.Cache
		p.Cache.SetRefresh(s.refreshToExact, s.fe.Controller().RefreshAllowed)
	}
	s.slo, s.costs = cmp.Or(p.SLO, s.slo), cmp.Or(p.Costs, s.costs)
	return nil
}

// replyTo starts the reply to a whole-service request: its identity and
// class echoed, no level served yet.
func replyTo(req *wire.Request, status uint8, errMsg string) *wire.Reply {
	return &wire.Reply{ID: req.ID, Kind: req.Kind, Status: status, Err: errMsg,
		SLO: req.SLO, MinAccuracy: req.MinAccuracy, Level: wire.NoLevel}
}

// cacheKey computes the canonical cache key of a whole-service request
// using a pooled scratch buffer.
func (s *FrontServer) cacheKey(req *wire.Request) uint64 {
	bp, _ := s.keyBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = wire.AppendCanonicalKey((*bp)[:0], req)
	key := rescache.Key(*bp)
	putKeyBuf(&s.keyBufs, bp)
	return key
}

// origin names who asked for a whole-service pass.
type origin uint8

const (
	originClient  origin = iota // a client request off the wire
	originRefresh               // the cache's refresh-to-exact worker, and the post-swap re-warm that shares it
	originAudit                 // a ground-truth audit replay
)

// charges is what a pass is charged to, per origin; every origin is
// traced. This table is the one place that decides "internal traffic is
// excluded": refreshes are real work billed to the reserved internal
// tenant, never to a client's; an audit replay is measurement, not
// service, and is charged to nothing.
var charges = [...]struct {
	cached bool   // answered through the result cache (else a fresh fan-out, traced as CacheRefresh)
	slo    bool   // counts in the SLO windows, and pins its degradations as anomaly exemplars
	audit  bool   // offered to the ground-truth auditor
	cost   bool   // metered into the cost table …
	tenant string // … under this tenant (a client is billed as the request's own)
}{
	originClient:  {cached: true, slo: true, audit: true, cost: true},
	originRefresh: {cost: true, tenant: cost.InternalTenant},
	originAudit:   {},
}

// pass answers one whole-service request, j's, for an origin: a client
// request's served job, or an internal pass's (internalJob). It is the
// only code that starts and finishes a decision trace (adopting the
// request's propagated trace ID so a client can correlate, minting one
// otherwise), opens and closes a cost account, consults the cache or
// fans out, and feeds the SLO tracker and the auditor — each per the
// origin's row of charges, each a nil check when its plane is off. The
// trace and the account are the job's own fields, and the job is the
// pass's context, so every stage below finds them through its Value
// (obs.TraceFrom, cost.AccountFrom). It returns the reply, the accuracy
// the answer is claimed at, and the pass's open cost row for the caller
// to close.
func (s *FrontServer) pass(j *job, from origin) (*wire.Reply, float64, costRow) {
	ch := &charges[from]
	req := j.req
	start := time.Now()
	epoch := s.dataEpoch.Load()            // pre-answer epoch: audit samples must not straddle a swap
	tr := s.tracer.Start(req.Trace, start) // nil recorder -> nil trace
	tenant := ch.tenant
	if from == originClient {
		tenant = req.Tenant
	}
	if tr != nil {
		tr.SetRequest(uint8(req.Kind), req.SLO, req.MinAccuracy, req.Deadline)
		tr.SetTenant(tenant)
		if !ch.cached {
			// Background recomputation load stays visible alongside
			// foreground requests.
			tr.SetCacheOutcome(obs.CacheRefresh)
		}
		if j.enq != 0 {
			// The front server's own queue wait, before any pipeline
			// stage ran. Comp -1: not tied to a subset.
			enq := time.Unix(0, j.enq)
			tr.Add(obs.SpanServerQueue, -1, enq, start.Sub(enq), 0)
		}
		j.tr = tr
	}
	if ch.cost && s.costs != nil {
		j.metered = true
		j.acct.AddWireBytes(uint64(req.FrameLen))
	}
	var rep *wire.Reply
	var acc float64
	if ch.cached && s.cache != nil {
		rep, acc = s.answer(j, req)
	} else {
		rep, acc = s.serveMiss(j, req)
	}
	rep.Trace = tr.ID() // nil-safe: 0 when untraced
	dur := time.Since(start)
	if ch.slo {
		switch rep.Status {
		case wire.ReplyDegraded:
			tr.MarkAnomaly(obs.AnomalyDegraded)
		case wire.ReplyUnavailable:
			tr.MarkAnomaly(obs.AnomalyUnavailable)
		}
		s.recordSLO(req, rep, tenant, start, dur)
	}
	tr.Finish(dur) // pins anomalous traces (incl. deadline misses) as exemplars
	if ch.audit {
		s.maybeAudit(req, rep, acc, epoch, tenant)
	}
	if !j.metered {
		return rep, acc, costRow{}
	}
	lvl := rep.Level
	if lvl == wire.NoLevel {
		// No controller chose a level: the components honored the
		// request's explicit one, but nothing stamped it on the reply.
		lvl = req.Level
	}
	return rep, acc, costRow{table: s.costs, acct: &j.acct, wall: dur, hit: rep.Cached, key: cost.Key{
		Tenant:   tenant,
		Class:    sloClassOf(req.SLO),
		Workload: req.Kind.String(), // the label the audit plane and the frontier join share
		Level:    lvl,
	}}
}

// costRow is a metered pass's open cost record. The zero value — cost
// plane off, or an origin that is not metered — closes to nothing.
type costRow struct {
	table *cost.Table
	acct  *cost.Account
	key   cost.Key
	wall  time.Duration
	hit   bool
}

// close records the row once the caller knows the encoded reply frame's
// size (0 when there is none).
func (r costRow) close(replyBytes int) {
	if r.acct == nil {
		return
	}
	r.acct.AddWireBytes(uint64(replyBytes))
	u := r.acct.Usage()
	u.WallNs = uint64(r.wall)
	r.table.Record(r.key, u, r.hit)
}

// exactOf clones a request for an internal recomputation at Exact class:
// no ladder level, no client deadline or frame, and a trace of its own.
func exactOf(req *wire.Request) *wire.Request {
	exact := *req
	exact.SLO, exact.MinAccuracy = wire.SLOExact, 0
	exact.Level, exact.Deadline = wire.NoLevel, 0
	exact.Trace, exact.FrameLen = 0, 0
	return &exact
}

// storable returns the immutable copy of a composed reply that the cache
// may keep — hits are re-stamped with their own request ID — or nil for
// a reply that must be neither shared nor stored: rejected, failed, or
// missing a subset (ReplyDegraded, frontend.Claim's partial answer).
func storable(rep *wire.Reply) interface{} {
	if rep.Status != wire.ReplyOK {
		return nil
	}
	stored := *rep
	stored.ID = 0
	return &stored
}

// answer resolves one client request through the result cache, and
// reports the accuracy the answer is claimed at (the cached entry's
// recorded accuracy on hits).
func (s *FrontServer) answer(ctx context.Context, req *wire.Request) (*wire.Reply, float64) {
	s.cache.SetLoad(s.fe.Controller().Load())
	v, acc, shared, err := s.cache.Serve(ctx, s.cacheKey(req), cacheFloor(req, s.cache), req,
		func() (interface{}, float64, interface{}, error) {
			rep, acc := s.serveMiss(ctx, req)
			return rep, acc, storable(rep), nil
		})
	if err != nil {
		// The wait for a shared result was cut short by the connection's
		// context.
		return replyTo(req, wire.ReplyErr, err.Error()), 0
	}
	rep := v.(*wire.Reply)
	if !shared {
		return rep, acc
	}
	// Cache hit or coalesced share: the kept reply is immutable — copy it
	// and stamp this request's identity and class.
	out := *rep
	out.ID = req.ID
	out.SLO, out.MinAccuracy = req.SLO, req.MinAccuracy
	out.Degraded = false
	out.Cached = true
	return &out, acc
}

// cacheFloor is the accuracy floor a cached entry must clear to serve
// req. Exact and Bounded floors are hard; BestEffort — and SLONone, a
// client that states no contract — gets the cache's load-loosened base.
func cacheFloor(req *wire.Request, c *rescache.Cache) float64 {
	switch req.SLO {
	case wire.SLOExact:
		return 1
	case wire.SLOBounded:
		return req.MinAccuracy
	default:
		return c.BestEffortFloor()
	}
}

// refreshToExact recomputes one cached answer at Exact class through
// the frontend pipeline and returns the upgraded reply (accuracy 1) —
// the cache's RefreshFunc.
func (s *FrontServer) refreshToExact(_ uint64, payload interface{}) (interface{}, float64, bool) {
	req, ok := payload.(*wire.Request)
	if !ok {
		return nil, 0, false
	}
	j := internalJob(exactOf(req), time.Now().Add(2*s.agg.Deadline()))
	rep, acc, row := s.pass(j, originRefresh)
	row.close(0)
	j.finish()
	kept := storable(rep)
	return kept, acc, kept != nil
}

// miss is a fresh fan-out's reply and frontend call record in one
// allocation. The record is the fan-out's context, which a straggler may
// read after the reply is written, so a miss is never pooled.
type miss struct {
	rep  wire.Reply
	call frontend.Result
}

// serveMiss composes one whole-service reply from a fresh fan-out through
// the frontend and reports the accuracy its answer claims (0 for
// failures). The degrade rule is frontend.Claim's; this only maps its
// outcome to the wire. Once the fan-out ran, the reply carries the class
// and level it ran at: an SLONone request's class reads BestEffort.
func (s *FrontServer) serveMiss(ctx context.Context, req *wire.Request) (*wire.Reply, float64) {
	m := &miss{rep: *replyTo(req, wire.ReplyOK, "")}
	rep, call := &m.rep, &m.call
	err := s.fe.CallInto(ctx, req, sloFromWire(req), call)
	subs := call.Sub
	if subs != nil {
		rep.SLO, rep.MinAccuracy = uint8(call.SLO.Kind), call.SLO.MinAccuracy
		rep.Degraded, rep.Level = call.Degraded, int16(call.Level)
	}
	if err != nil {
		rep.Status, rep.Err = wire.ReplyErr, err.Error()
		switch { // Is first: an admission rejection allocates nothing here
		case errors.Is(err, frontend.ErrRejected):
			rep.Status = wire.ReplyRejected
		case errors.As(err, new(*frontend.UnavailableError)):
			rep.Status, rep.SubStatus = wire.ReplyUnavailable, SubStatuses(subs)
		}
		return rep, 0
	}
	rep.SubStatus = SubStatuses(subs)
	// A partial answer the rule let through: some strata are absent (dead
	// component, tripped breaker, shed queue, expired budget).
	partial := call.Answered < len(subs)
	if partial {
		rep.Status, rep.Degraded = wire.ReplyDegraded, true
	}
	tr := obs.TraceFrom(ctx)
	var mergeT0 time.Time
	if tr != nil {
		mergeT0 = time.Now()
	}
	switch req.Kind {
	case wire.KindCF:
		rep.CF = ComposeCF(subs)
	case wire.KindSearch:
		rep.Search = ComposeSearch(subs, searchK(req))
	case wire.KindAgg:
		rep.Agg = ComposeAgg(subs)
		if partial {
			ExtrapolateAgg(rep.Agg, call.Answered, len(subs))
		}
	}
	if tr != nil {
		tr.Add(obs.SpanMerge, -1, mergeT0, time.Since(mergeT0), 0)
	}
	if s.releaseSubs {
		for _, sr := range subs {
			if sub := subReplyOf(sr); sub != nil {
				wire.ReleaseSubReply(sub)
			}
		}
	}
	return rep, call.EstimatedAccuracy
}

// sloFromWire converts a request's wire SLO class to the frontend's.
// SLONone maps to BestEffort: a client that states no contract accepts
// whatever the current load dictates.
func sloFromWire(req *wire.Request) frontend.SLO {
	switch req.SLO {
	case wire.SLOExact:
		return frontend.ExactSLO()
	case wire.SLOBounded:
		return frontend.BoundedSLO(req.MinAccuracy)
	default:
		return frontend.BestEffortSLO()
	}
}
