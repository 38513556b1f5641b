package netsvc

import (
	"context"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// startTracedStack stands up n component servers, an aggregator, a
// frontend, and a traced FrontServer on loopback, returning the
// recorder and a connected client.
func startTracedStack(t *testing.T, n int) (*obs.Recorder, *Client) {
	t.Helper()
	comps := buildAggComps(t, n)
	rec := obs.NewRecorder(16, 64)
	cl := startLoopback(t, LoopbackSpec{Components: n, Handler: every(NewAggBackend(comps, BackendOptions{})),
		Agg: waitAll, Front: calibratedFront(nil, ServerOptions{Tracer: rec}, nil)}).Client
	return rec, cl
}

// TestTraceStitchesAcrossWire is the cross-process tracing contract: a
// client-stamped trace ID is adopted by the front server, propagated
// to every component, and the server-side queue/exec spans travel back
// in the sub-replies to be stitched into one span tree.
func TestTraceStitchesAcrossWire(t *testing.T) {
	const n = 2
	rec, cl := startTracedStack(t, n)

	req := aggReq(agg.Sum, 0, math.Inf(1))
	req.SLO = wire.SLOBestEffort
	req.Trace = 0x5eed
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rep, err := cl.Call(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != wire.ReplyOK {
		t.Fatalf("reply status %d err %q", rep.Status, rep.Err)
	}
	if rep.Trace != 0x5eed {
		t.Fatalf("reply echoes trace %#x, want the client's %#x", rep.Trace, 0x5eed)
	}

	views := rec.Snapshot(0)
	if len(views) != 1 {
		t.Fatalf("recorder holds %d traces, want 1", len(views))
	}
	tv := views[0]
	if tv.ID != 0x5eed || !tv.Done {
		t.Fatalf("trace = id %#x done %v, want id 0x5eed done", tv.ID, tv.Done)
	}
	if tv.DurNs <= 0 {
		t.Fatalf("finished trace has non-positive duration %d", tv.DurNs)
	}
	var subOps, remoteQueue, remoteExec, admission, merge int
	for _, sp := range tv.Spans {
		switch sp.Kind {
		case obs.SpanSubOp:
			subOps++
		case obs.SpanServerQueue:
			if sp.Remote {
				remoteQueue++
			}
		case obs.SpanServerExec:
			if sp.Remote {
				remoteExec++
			}
		case obs.SpanAdmission:
			admission++
		case obs.SpanMerge:
			merge++
		}
	}
	if subOps != n {
		t.Fatalf("trace holds %d sub-op spans, want one per subset (%d)", subOps, n)
	}
	if remoteQueue != n || remoteExec != n {
		t.Fatalf("stitched remote spans: %d queue + %d exec, want %d of each", remoteQueue, remoteExec, n)
	}
	if admission == 0 {
		t.Fatal("frontend admission span missing from the stitched tree")
	}
	if merge != 1 {
		t.Fatalf("trace holds %d merge spans, want 1", merge)
	}
	if acc := obs.Accounted(tv); acc <= 0 {
		t.Fatalf("accounted time %.3fms, want > 0", acc)
	}
	if bd := obs.Breakdown(tv); bd.ExecMs <= 0 {
		t.Fatalf("critical-path breakdown found no server exec time: %+v", bd)
	}
}

// TestTraceMintsIDWhenAbsent asserts an untraced client request still
// gets a server-minted trace ID echoed back when the server traces.
func TestTraceMintsIDWhenAbsent(t *testing.T) {
	_, cl := startTracedStack(t, 1)
	req := aggReq(agg.Sum, 0, math.Inf(1))
	req.SLO = wire.SLOBestEffort
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rep, err := cl.Call(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == 0 {
		t.Fatal("tracing server answered with trace ID 0")
	}
}

// TestUntracedServerStaysSilent asserts a FrontServer without a
// Tracer answers with trace ID 0 and no component spans are requested
// (the propagated trace ID stays 0 end to end).
func TestUntracedServerStaysSilent(t *testing.T) {
	comps := buildAggComps(t, 1)
	var sawTraced atomic.Int64
	inner := NewAggBackend(comps, BackendOptions{})
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		if req.Trace != 0 {
			sawTraced.Add(1)
		}
		return inner(ctx, req)
	}
	cl := startLoopback(t, LoopbackSpec{Components: 1, Handler: every(h), Agg: waitAll, Front: bareFront}).Client
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rep, err := cl.Call(ctx, aggReq(agg.Sum, 0, math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != wire.ReplyOK || rep.Trace != 0 {
		t.Fatalf("untraced reply: status %d trace %#x, want OK and 0", rep.Status, rep.Trace)
	}
	if sawTraced.Load() != 0 {
		t.Fatalf("%d component requests carried a trace ID on an untraced server", sawTraced.Load())
	}
}

// TestGracefulShutdownDrains is the drain contract: Shutdown stops
// accepting, but a request already in flight is answered before the
// server closes, and Shutdown reports the drain completed.
func TestGracefulShutdownDrains(t *testing.T) {
	comps := buildAggComps(t, 1)
	inner := NewAggBackend(comps, BackendOptions{})
	started := make(chan struct{})
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		close(started)
		time.Sleep(50 * time.Millisecond)
		return inner(ctx, req)
	}
	lb := startLoopback(t, LoopbackSpec{Components: 1, Handler: every(h), Agg: waitAll})
	srv, addr, a := lb.Servers[0], lb.Addrs[0], lb.Agg

	type result struct {
		subs []service.SubResult
		err  error
	}
	done := make(chan result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		subs, err := a.Call(ctx, aggReq(agg.Sum, 0, math.Inf(1)))
		done <- result{subs, err}
	}()
	<-started // the request is mid-handler: Shutdown must wait for it

	if !srv.Shutdown(2 * time.Second) {
		t.Fatal("Shutdown reported an incomplete drain")
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.subs[0].Err != nil || r.subs[0].Skipped {
		t.Fatalf("in-flight request was cut off by shutdown: %+v", r.subs[0])
	}
	if _, ok := r.subs[0].Value.(*wire.SubReply); !ok {
		t.Fatalf("in-flight request lost its reply: %+v", r.subs[0])
	}

	// The listener is gone: new connections are refused.
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestShutdownIdempotent asserts Shutdown after Close (and a second
// Shutdown) return immediately and report drained.
func TestShutdownIdempotent(t *testing.T) {
	srv, _ := startServer(t, func(ctx context.Context, req *wire.Request) *wire.SubReply {
		return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel}
	}, ServerOptions{})
	if !srv.Shutdown(time.Second) {
		t.Fatal("first Shutdown on an idle server did not drain")
	}
	if !srv.Shutdown(time.Second) {
		t.Fatal("second Shutdown did not report drained")
	}
	srv.Close() // must be a no-op, not a panic
}

// TestPlanesAllocations pins the price of watching: one client agg pass
// over loopback with the trace, SLO, audit and cost planes on allocates
// at most one more time than the same pass with every plane off. The
// planes ride records the request already has — the served job holds
// the trace and the cost account, a traced sub-reply's object its two
// server spans — so a traced pass adds neither a context layer nor an
// account nor a span slice. (The auditor here samples nothing: a sampled
// request's replay is real work, not the price of watching.)
func TestPlanesAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops at random)")
	}
	const n = 4
	comps := buildAggComps(t, n)
	pass := func(planes bool) float64 {
		var sopts ServerOptions
		var enable func(*FrontServer) error
		if planes {
			sopts.Tracer = obs.NewRecorder(64, 16)
			enable = func(fs *FrontServer) error {
				fs.EnableSLO(obs.NewSLOTracker(obs.SLOBudgets{}), nil)
				auditor, err := fs.EnableAudit(audit.Config{SampleFraction: 1e-12})
				if err != nil {
					return err
				}
				t.Cleanup(auditor.Close)
				return fs.EnableCost(cost.NewTable())
			}
		}
		cl := startLoopback(t, LoopbackSpec{Components: n, Handler: every(NewAggBackend(comps, BackendOptions{})),
			Agg: waitAll, Front: calibratedFront(nil, sopts, enable)}).Client
		req := aggReq(agg.Sum, 0, math.Inf(1))
		req.SLO = wire.SLOBestEffort
		return testing.AllocsPerRun(300, func() {
			rep, err := cl.Call(context.Background(), req)
			if err != nil || rep.Status != wire.ReplyOK || len(rep.SubStatus) != n || (rep.Trace != 0) != planes {
				t.Fatalf("planes %v: reply %+v, err %v", planes, rep, err)
			}
		})
	}
	off, on := pass(false), pass(true)
	t.Logf("client agg pass over %d shards: %.2f allocations with every plane off, %.2f with all on", n, off, on)
	if on-off > 1 {
		t.Errorf("the planes cost %.2f allocations per pass, want at most 1", on-off)
	}
}
