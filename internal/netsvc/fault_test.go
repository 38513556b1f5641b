package netsvc

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/breaker"
	"accuracytrader/internal/faultinject"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// leakCheck snapshots the goroutine count and returns a func asserting
// the count settles back near the snapshot.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
	}
}

// refusedAddr returns a loopback address with nothing listening on it.
func refusedAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestDialBackoffLimitsRedialStorm drives many calls against a
// refusing listener and asserts dial attempts follow the capped
// backoff schedule instead of one-dial-per-request.
func TestDialBackoffLimitsRedialStorm(t *testing.T) {
	addr := refusedAddr(t)
	var dials atomic.Int64
	// Not the rig: the only peer is an address nothing listens on.
	a, err := NewAggregator([]string{addr}, AggregatorOptions{
		Policy:     service.WaitAll,
		Deadline:   50 * time.Millisecond,
		RedialBase: 25 * time.Millisecond,
		RedialMax:  200 * time.Millisecond,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, timeout)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const calls = 60
	for i := 0; i < calls; i++ {
		subs, err := a.Call(context.Background(), aggReq(agg.Sum, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		if subs[0].Err == nil {
			t.Fatal("call against a refusing listener answered OK")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// 60 calls over ~300ms. Without backoff every call (plus its retry)
	// dials: >= 60 attempts. With the 25ms-base/200ms-cap schedule the
	// call path and the background prober together fit in a small
	// logarithmic budget.
	if got := dials.Load(); got == 0 || got > 15 {
		t.Fatalf("dial attempts = %d, want in [1, 15] under backoff", got)
	}
	if a.Stats().Faults == 0 {
		t.Fatal("fault counter must move")
	}
}

// TestBreakerEvictsReroutesAndRecloses is the breaker lifecycle over a
// real kill/heal cycle: trips open on a killed peer, evicts it from
// routing (the healthy peer answers every subset), publishes its state
// to metrics, and re-closes via the background prober after heal with
// no request traffic at all.
func TestBreakerEvictsReroutesAndRecloses(t *testing.T) {
	comps := buildAggComps(t, 2)
	h := NewAggBackend(comps, BackendOptions{})

	reg := obs.NewRegistry()
	lb := startLoopback(t, LoopbackSpec{Components: 2, Handler: every(h), Agg: AggregatorOptions{
		Policy:     service.WaitAll,
		Deadline:   300 * time.Millisecond,
		RedialBase: 10 * time.Millisecond,
		RedialMax:  80 * time.Millisecond,
		Breaker:    breaker.Config{FailThreshold: 3, Cooldown: 50 * time.Millisecond},
		Metrics:    reg,
	}})
	a, addr0 := lb.Agg, lb.Addrs[0]

	// Kill component 0.
	lb.Servers[0].Close()

	// Calls keep succeeding end to end: once the breaker opens, subset 0
	// is rerouted to the healthy peer (every server holds all shards).
	deadline := time.Now().Add(5 * time.Second)
	healthyCall := false
	for time.Now().Before(deadline) && !healthyCall {
		subs, err := a.Call(context.Background(), aggReq(agg.Sum, 0, math.Inf(1)))
		if err != nil {
			t.Fatal(err)
		}
		healthyCall = true
		for _, sr := range subs {
			if sr.Err != nil || sr.Skipped {
				healthyCall = false
			}
		}
	}
	if !healthyCall {
		t.Fatal("calls never recovered via rerouting after component kill")
	}
	if st := a.BreakerState(0); st != breaker.Open && st != breaker.HalfOpen {
		t.Fatalf("killed peer breaker state = %v, want open/half-open", st)
	}
	open := a.OpenBreakers()
	if len(open) != 1 || open[0] != addr0 {
		t.Fatalf("OpenBreakers() = %v, want [%s]", open, addr0)
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "netsvc_breaker_state{peer=") {
		t.Fatal("breaker state gauge missing from metrics")
	}
	if !strings.Contains(prom.String(), `state="open"`) {
		t.Fatal("breaker open transition counter missing from metrics")
	}

	// Heal: new server on the same address. The background prober must
	// re-close the breaker without any further calls.
	l0b, err := net.Listen("tcp", addr0)
	if err != nil {
		t.Fatal(err)
	}
	srv0b := NewServer(h, ServerOptions{})
	go srv0b.Serve(l0b)
	t.Cleanup(srv0b.Close)

	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && a.BreakerState(0) != breaker.Closed {
		time.Sleep(10 * time.Millisecond)
	}
	if st := a.BreakerState(0); st != breaker.Closed {
		t.Fatalf("breaker did not re-close after heal: %v", st)
	}
	if got := a.OpenBreakers(); got != nil {
		t.Fatalf("OpenBreakers() after heal = %v, want none", got)
	}

	// And traffic lands on the healed peer again.
	subs, err := a.Call(context.Background(), aggReq(agg.Sum, 0, math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range subs {
		if sr.Err != nil || sr.Skipped {
			t.Fatalf("post-heal sub %d: %+v", i, sr)
		}
	}
}

// openConns counts the connections a server currently holds open.
func openConns(s *srvCore) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// oneAggReply is a handler answering every sub-operation at once.
func oneAggReply(context.Context, *wire.Request) *wire.SubReply {
	return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
		Agg: &wire.AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0}, CntVar: []float64{0}}}
}

// TestStalledPeerProbesLeaveNoConnections stalls one component so its
// breaker trips again and again. Each breaker probe dials a fresh
// connection over the live, stalled one; the replaced connection must be
// closed, not orphaned, so after Close the component holds none.
func TestStalledPeerProbesLeaveNoConnections(t *testing.T) {
	stall := faultinject.NewScript("comp0", 1)
	lb := startLoopback(t, LoopbackSpec{Components: 2, Handler: every(oneAggReply),
		WrapListener: func(i int, l net.Listener) net.Listener {
			if i == 0 {
				return stall.WrapListener(l)
			}
			return l
		},
		Agg: AggregatorOptions{
			Policy:     service.PartialGather,
			Deadline:   30 * time.Millisecond,
			RedialBase: 5 * time.Millisecond,
			RedialMax:  20 * time.Millisecond,
			Breaker:    breaker.Config{FailThreshold: 3, Cooldown: 20 * time.Millisecond},
		}})
	srv, a := lb.Servers[0], lb.Agg
	stall.Set(faultinject.Stall)
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); {
		if _, err := a.Call(context.Background(), aggReq(agg.Sum, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	opens := a.Stats().BreakerOpens
	if opens < 2 {
		t.Fatalf("breaker opened %d times over the stall, want several probes", opens)
	}
	a.Close()
	// The component reads again, so each closed connection's EOF reaches
	// it; a connection the aggregator still holds stays open.
	stall.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for openConns(srv.srvCore) != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := openConns(srv.srvCore); n != 0 {
		t.Fatalf("after %d breaker opens and Close, the component holds %d aggregator connections, want 0", opens, n)
	}
}

// TestConnectionCapRefusesOverflow fills a front server's connection
// cap (lowered to 8) with a client and idle peers: every connection past
// it is accepted, closed and counted as refused, while the client's
// Exact replies stay bit-exact, and Close leaves no goroutine behind.
func TestConnectionCapRefusesOverflow(t *testing.T) {
	const limit, over = 8, 4
	comps := buildAggComps(t, 2)
	lb := startLoopback(t, LoopbackSpec{Components: 2, Handler: every(NewAggBackend(comps, BackendOptions{})), Agg: waitAll})
	checkLeaks := leakCheck(t)
	fs, err := NewFront(lb.Agg, nil, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fs.maxConns = limit
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(l)
	cl, err := DialClient(l.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dial := func() net.Conn {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var idle []net.Conn
	for i := 1; i < limit; i++ {
		idle = append(idle, dial())
	}
	for deadline := time.Now().Add(5 * time.Second); openConns(fs.srvCore) < limit && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := openConns(fs.srvCore); n != limit {
		t.Fatalf("%d connections open, want the limit, %d", n, limit)
	}

	q := agg.Query{Op: agg.Sum, Lo: 0, Hi: math.Inf(1)}
	exact := agg.NewResult(comps[0].T.NumKeys())
	for _, c := range comps {
		exact.Merge(agg.ExactResult(c, q))
	}
	for i := 0; i < over; i++ {
		c := dial()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("connection %d over the limit: read %v, want EOF (closed at accept)", i+1, err)
		}
		c.Close()
		req := aggReq(q.Op, q.Lo, q.Hi)
		req.SLO = wire.SLOExact
		rep, err := cl.Call(context.Background(), req)
		if err != nil || rep.Status != wire.ReplyOK {
			t.Fatalf("client at the limit: %+v, %v", rep, err)
		}
		got := AggResultOf(rep.Agg)
		for k := range exact.Sum {
			if math.Float64bits(got.Sum[k]) != math.Float64bits(exact.Sum[k]) || math.Float64bits(got.Cnt[k]) != math.Float64bits(exact.Cnt[k]) {
				t.Fatalf("key %d: (%v, %v) at the limit, exact (%v, %v)", k, got.Sum[k], got.Cnt[k], exact.Sum[k], exact.Cnt[k])
			}
		}
	}
	if st := fs.Stats(); st.Refused != over || openConns(fs.srvCore) != limit {
		t.Fatalf("refused %d with %d open, want %d refused and the limit, %d, open", st.Refused, openConns(fs.srvCore), over, limit)
	}
	cl.Close()
	for _, c := range idle {
		c.Close()
	}
	fs.Close()
	checkLeaks()
}

// TestCallCancellationReleasesInflight cancels the caller's context
// while every sub-operation is parked in a stalled handler and asserts
// Call returns promptly and the dispatch/hedge machinery unwinds
// without goroutine leaks.
func TestCallCancellationReleasesInflight(t *testing.T) {
	checkLeaks := leakCheck(t)
	release := make(chan struct{})
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
			Agg: &wire.AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0}, CntVar: []float64{0}}}
	}
	lb := startLoopback(t, LoopbackSpec{Components: 2, Handler: every(h), Agg: AggregatorOptions{
		Policy:   service.Hedged,
		Deadline: 30 * time.Second, // far away: only cancellation can release
	}})
	a := lb.Agg

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		subs, err := a.Call(ctx, aggReq(agg.Sum, 0, 1))
		if err == nil {
			for _, sr := range subs {
				if sr.Err == nil && !sr.Skipped {
					done <- nil
					return
				}
			}
		}
		done <- ctx.Err()
	}()
	time.Sleep(50 * time.Millisecond) // let the sub-ops reach the handlers
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Call did not return after context cancellation")
	}
	if got := a.Inflight(); got != 0 {
		t.Fatalf("Inflight = %d after cancelled Call returned", got)
	}
	close(release)
	lb.Close()
	checkLeaks()
}

// TestClientCancelLeavesNoPending abandons a Client.Call whose reply is
// still being computed and asserts the call took its waiter back off the
// multiplexed connection: nothing is left pending, the late reply finds
// no one and is dropped, and the connection keeps serving.
func TestClientCancelLeavesNoPending(t *testing.T) {
	release := make(chan struct{})
	var stalled atomic.Bool
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		if stalled.CompareAndSwap(false, true) {
			<-release // only the first request stalls
		}
		return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
			Agg: &wire.AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0}, CntVar: []float64{0}}}
	}
	lb := startLoopback(t, LoopbackSpec{Components: 1, Handler: every(h), Server: ServerOptions{Workers: 2},
		Agg: waitAll, Front: &FrontSpec{}})
	defer close(release)
	cl := lb.Client

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel) // after the request reached the handler
	if _, err := cl.Call(ctx, aggReq(agg.Sum, 0, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("stalled Call = %v, want context.Canceled", err)
	}
	if !stalled.Load() {
		t.Fatal("request never reached the handler")
	}
	pc := cl.conn
	pc.pmu.Lock()
	n := len(pc.pending)
	pc.pmu.Unlock()
	if n != 0 {
		t.Fatalf("%d waiters still pending after the cancelled Call returned", n)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rep, err := cl.Call(ctx, aggReq(agg.Sum, 0, 1)); err != nil || rep.Status != wire.ReplyOK {
		t.Fatalf("Call after a cancelled one = %+v, %v", rep, err)
	}
	if cl.conn != pc {
		t.Fatal("a cancelled Call cost the client its connection")
	}
}

// TestMidFlightKillEveryCallReturns kills a component server while N
// calls are in flight and asserts every Call returns (an answered,
// errored, or skipped sub-result — never a hang) with no goroutine
// leaks. Run under -race this doubles as the abrupt-close race test.
func TestMidFlightKillEveryCallReturns(t *testing.T) {
	checkLeaks := leakCheck(t)
	comps := buildAggComps(t, 2)
	inner := NewAggBackend(comps, BackendOptions{})
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		time.Sleep(20 * time.Millisecond) // hold replies so the kill lands mid-flight
		return inner(ctx, req)
	}
	lb := startLoopback(t, LoopbackSpec{Components: 2, Handler: every(h),
		Agg: AggregatorOptions{Policy: service.WaitAll, Deadline: time.Second}})
	a := lb.Agg

	const inflight = 24
	var wg sync.WaitGroup
	var returned atomic.Int64
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if _, err := a.Call(ctx, aggReq(agg.Sum, 0, math.Inf(1))); err != nil {
				t.Errorf("Call error: %v", err)
				return
			}
			returned.Add(1)
		}()
	}
	time.Sleep(10 * time.Millisecond) // calls dispatched, replies pending
	lb.Servers[0].Close()             // abrupt kill: connections reset mid-flight
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("calls hung after mid-flight server kill")
	}
	if got := returned.Load(); got != inflight {
		t.Fatalf("%d of %d calls returned", got, inflight)
	}
	lb.Close()
	checkLeaks()
}

// TestBusyRepliesDoNotFeedHedgeTrigger is the loopback twin of the gather
// core's shed-latency test: a component server whose queue is full
// answers StatusBusy within microseconds, precisely when the cluster is
// overloaded. Those refusals are not service-time samples; counted as
// such they would drag the p95 hedge trigger down to HedgeFloor.
func TestBusyRepliesDoNotFeedHedgeTrigger(t *testing.T) {
	release := make(chan struct{})
	ok := &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
		Agg: &wire.AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0}, CntVar: []float64{0}}}
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		if req.Tenant == "block" {
			<-release
		} else {
			time.Sleep(10 * time.Millisecond)
		}
		return ok
	}
	lb := startLoopback(t, LoopbackSpec{Components: 1, Handler: every(h),
		Server: ServerOptions{Workers: 1, QueueLen: 1},
		Agg:    AggregatorOptions{Policy: service.WaitAll, Deadline: 30 * time.Second}})
	srv, a := lb.Servers[0], lb.Agg
	call := func(tenant string, timeout time.Duration) service.SubResult {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		req := aggReq(agg.Sum, 0, 1)
		req.Tenant = tenant
		subs, err := a.Call(ctx, req)
		if err != nil {
			t.Error(err)
			return service.SubResult{}
		}
		return subs[0]
	}
	for i := 0; i < 50; i++ {
		if sr := call("", time.Second); sr.Err != nil {
			t.Fatalf("warm-up call: %+v", sr)
		}
	}
	warm := a.EstimatedP95()
	if warm < 8*time.Millisecond {
		t.Fatalf("warm hedge trigger = %v, want ~10ms", warm)
	}
	// One blocked request holds the only worker; the next request to
	// arrive (it times out there) fills the one-slot queue behind it.
	var blocked sync.WaitGroup
	defer func() { close(release); blocked.Wait() }()
	blocked.Add(1)
	go func() { defer blocked.Done(); call("block", 30*time.Second) }()
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Requests < 51; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("blocking request never reached the worker")
		}
	}
	if sr := call("", 50*time.Millisecond); !sr.Skipped {
		t.Fatalf("request queued behind the blocked worker: %+v", sr)
	}
	for i := 0; i < 5000; i++ {
		if sr := call("", time.Second); sr.Err != ErrQueueFull {
			t.Fatalf("call %d against a full server queue: %+v", i, sr)
		}
	}
	if got := a.EstimatedP95(); got < warm/2 {
		t.Fatalf("hedge trigger fell %v -> %v on busy replies", warm, got)
	}
}

// TestCloseWithHedgesArmedAndReconnectorRunning closes an aggregator
// while Hedged calls are parked mid-gather (reissue timers armed, not
// yet due) and a dead peer's reconnector is looping, and asserts every
// goroutine the aggregator started is gone afterwards.
func TestCloseWithHedgesArmedAndReconnectorRunning(t *testing.T) {
	checkLeaks := leakCheck(t)
	release := make(chan struct{})
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		<-release
		return &wire.SubReply{Status: wire.StatusErr, Err: "released", Level: wire.NoLevel}
	}
	srv, addr := startServer(t, h, ServerOptions{Workers: 4})
	// Not the rig: the second peer must be dead from the start (the rig
	// waits until every component answers).
	a, err := NewAggregator([]string{addr, refusedAddr(t)}, AggregatorOptions{
		Policy:     service.Hedged,
		HedgeFloor: time.Minute, // armed at Close, never due
		Deadline:   time.Minute,
		RedialBase: 5 * time.Millisecond,
		RedialMax:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var calls sync.WaitGroup
	for i := 0; i < 4; i++ {
		calls.Add(1)
		go func() {
			defer calls.Done()
			a.Call(context.Background(), aggReq(agg.Sum, 0, 1))
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Inflight() != 4 || a.QueueDepth(0) == 0 || a.Stats().Faults == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("calls never parked: inflight %d, depth %d, stats %+v", a.Inflight(), a.QueueDepth(0), a.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	a.Close()
	calls.Wait()
	if _, err := a.Call(context.Background(), aggReq(agg.Sum, 0, 1)); err != ErrClosed {
		t.Fatalf("Call after Close: err = %v, want ErrClosed", err)
	}
	close(release)
	srv.Close()
	checkLeaks()
}
