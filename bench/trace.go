package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// Span names, outermost first. A span's parent is the span of the same
// request (Seq) one step out: handler spans are caused by the gather
// span, which is caused by the client span.
const (
	spanClient  = "client.call"   // Client.Call start -> reply decoded
	spanGather  = "netsvc.gather" // Aggregator.Call
	spanHandler = "netsvc.handler"
)

// directSeqBase separates the request ids the harness stamps on direct
// Aggregator.Call probes from the ids the Client stamps (1, 2, 3, ...).
const directSeqBase = 1 << 40

// traceFileRequests bounds the requests whose spans are written to the
// trace file; the statistics use every span.
const traceFileRequests = 4096

// span is one timed interval at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Seq    uint64 `json:"seq"`
	Comp   int    `json:"comp"` // executing server for handler spans, -1 otherwise
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer is the traced run's instrumentation: spans recorded by the
// decorators it installs, the counting connections, and the sub-result
// sets kept for the compose probe. A nil *tracer installs nothing, so
// the untraced run executes the program exactly as deployed.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	subs  [][]service.SubResult // recent complete gathers, for the compose probe

	sets, subOps atomic.Int64 // Algorithm 1 steps over answered sub-operations

	front, comps, dial connCounts
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) add(name, parent string, seq uint64, comp int, start, end time.Time) {
	s := span{Name: name, Parent: parent, Seq: seq, Comp: comp,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// keepSubs retains a bounded sample of fully answered gathers.
func (t *tracer) keepSubs(subs []service.SubResult) {
	if !service.Complete(subs) {
		return
	}
	t.mu.Lock()
	if len(t.subs) < 64 {
		t.subs = append(t.subs, subs)
	}
	t.mu.Unlock()
}

// wrapHandler decorates one server's handler with a span per
// sub-operation, keyed by the parent request's id.
func (t *tracer) wrapHandler(server int, h netsvc.Handler) netsvc.Handler {
	if t == nil {
		return h
	}
	return func(ctx context.Context, req *wire.Request) *wire.SubReply {
		t0 := time.Now()
		rep := h(ctx, req)
		t.add(spanHandler, spanGather, req.Seq, server, t0, time.Now())
		if rep.Status == wire.StatusOK {
			t.subOps.Add(1)
			t.sets.Add(int64(rep.SetsProcessed))
		}
		return rep
	}
}

// wrapListener counts the accepted connections of a component server
// (front = false) or of the front server (front = true).
func (t *tracer) wrapListener(l net.Listener, front bool) net.Listener {
	if t == nil {
		return l
	}
	cc := &t.comps
	if front {
		cc = &t.front
	}
	return &countingListener{Listener: l, counts: cc}
}

// dialer returns the aggregator's transport dial, counting when traced.
func (t *tracer) dialer() func(addr string, timeout time.Duration) (net.Conn, error) {
	if t == nil {
		return nil
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return t.dial.wrap(c), nil
	}
}

// tracedBackend is the frontend.Backend decorator over the Aggregator:
// one gather span per fan-out.
type tracedBackend struct {
	*netsvc.Aggregator
	t *tracer
}

func (b tracedBackend) Call(ctx context.Context, payload interface{}) ([]service.SubResult, error) {
	t0 := time.Now()
	subs, err := b.Aggregator.Call(ctx, payload)
	if req, ok := payload.(*wire.Request); ok {
		b.t.add(spanGather, spanClient, req.ID, -1, t0, time.Now())
	}
	if err == nil {
		b.t.keepSubs(subs)
	}
	return subs, err
}

// wrapBackend decorates the aggregator for the frontend's use.
func (t *tracer) wrapBackend(a *netsvc.Aggregator) frontend.Backend {
	if t == nil {
		return a
	}
	return tracedBackend{Aggregator: a, t: t}
}

// directCall times one Aggregator.Call made by the harness itself —
// the gather span of workloads that run without a frontend, where the
// front server holds the concrete aggregator and cannot be decorated.
func (t *tracer) directCall(a *netsvc.Aggregator, req *wire.Request, seq uint64) {
	tmpl := *req
	tmpl.ID = seq
	t0 := time.Now()
	subs, err := a.Call(context.Background(), &tmpl)
	t.add(spanGather, "", seq, -1, t0, time.Now())
	if err == nil {
		t.keepSubs(subs)
	}
}

// requestBreakdown is one traced read split along its blocking path.
type requestBreakdown struct {
	frontSelf, gatherSelf, handler float64 // microseconds
}

// breakdowns links spans by request id and returns, per client span
// that reached the aggregator, the self time of each layer: a span's
// duration minus the union of its children. pairs maps a client
// request id to the id of the direct Aggregator.Call that repeated it
// (workloads without a frontend); it is nil when the gather span is a
// child of the client span itself.
func (t *tracer) breakdowns(pairs map[uint64]uint64) (out []requestBreakdown, gatherUs []float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	bySeq := map[uint64][]span{}
	for _, s := range spans {
		bySeq[s.Seq] = append(bySeq[s.Seq], s)
	}
	within := func(in, outer span) bool { return in.Start >= outer.Start && in.End <= outer.End }
	// children returns the spans of one request with the given name
	// that lie inside outer (replays of the same request id by the
	// cache re-warm or the auditor run later and fall outside it).
	children := func(seq uint64, name string, outer span) []span {
		var cs []span
		for _, s := range bySeq[seq] {
			if s.Name == name && within(s, outer) {
				cs = append(cs, s)
			}
		}
		return cs
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, c := range spans {
		if c.Name != spanClient {
			continue
		}
		var b requestBreakdown
		if pairs == nil {
			gs := children(c.Seq, spanGather, c)
			if len(gs) == 0 {
				continue // answered from the cache: never reached the aggregator
			}
			g := gs[0]
			hs := children(c.Seq, spanHandler, g)
			b.handler = us(unionNs(hs))
			b.gatherSelf = us(g.End-g.Start) - b.handler
			b.frontSelf = us(c.End-c.Start) - us(g.End-g.Start)
			gatherUs = append(gatherUs, us(g.End-g.Start))
		} else {
			dseq, ok := pairs[c.Seq]
			if !ok {
				continue
			}
			var g span
			for _, s := range bySeq[dseq] {
				if s.Name == spanGather {
					g = s
				}
			}
			b.handler = us(unionNs(children(c.Seq, spanHandler, c)))
			b.gatherSelf = us(g.End-g.Start) - us(unionNs(children(dseq, spanHandler, g)))
			b.frontSelf = us(c.End-c.Start) - us(g.End-g.Start)
			gatherUs = append(gatherUs, us(g.End-g.Start))
		}
		out = append(out, b)
	}
	return out, gatherUs
}

// unionNs returns the total time covered by at least one span.
func unionNs(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	total := int64(0)
	curS, curE := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
		} else if s.End > curE {
			curE = s.End
		}
	}
	return total + curE - curS
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Note     string             `json:"note"`
	Counts   map[string]float64 `json:"boundary_counts"`
	Spans    []span             `json:"spans"`
}

// write stores the spans of the first traceFileRequests requests, and
// the boundary counts, under dir.
func (t *tracer) write(dir, workload string, seed uint64, counts map[string]float64) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	keep := map[uint64]bool{}
	var out []span
	for _, s := range spans {
		if !keep[s.Seq] {
			if len(keep) >= traceFileRequests {
				continue
			}
			keep[s.Seq] = true
		}
		out = append(out, s)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{
		Workload: workload, Seed: seed, Counts: counts, Spans: out,
		Note: "spans of the first requests only; times are ns since the traced run began; " +
			"spans of one request share seq; parent names the causing span",
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
