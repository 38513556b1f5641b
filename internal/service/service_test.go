package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/breaker"
)

func sleepHandler(d time.Duration, v interface{}) Handler {
	return func(ctx context.Context, _ interface{}) (interface{}, error) {
		select {
		case <-time.After(d):
			return v, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// park enqueues a standalone job running h on one component — how
// these tests occupy a worker or fill a mailbox — and returns the
// channel its result arrives on.
func park(cl *Cluster, comp int, h Handler) <-chan SubResult {
	c := &call{
		g: cl.Gather, parent: context.Background(), deadline: time.Now().Add(time.Minute),
		reply: make(chan SubResult, 1), subs: make([]subState, 1),
	}
	// The attempt's reference, and one never dropped: a record of one
	// subset must not reach the pool.
	c.refs.Store(2)
	cl.comps[comp].mailbox <- job{a: Attempt{c: c, Target: comp}, handler: h, ctx: c, enqueued: time.Now()}
	return c.reply
}

func TestWaitAllGathersEverything(t *testing.T) {
	cl, err := New([]Handler{
		sleepHandler(time.Millisecond, 1),
		sleepHandler(2*time.Millisecond, 2),
		sleepHandler(time.Millisecond, 3),
	}, WaitAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Call(context.Background(), "req")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	for i, r := range res {
		if r.Err != nil || r.Skipped {
			t.Fatalf("sub %d: %+v", i, r)
		}
		if r.Value.(int) != i+1 {
			t.Fatalf("sub %d value %v", i, r.Value)
		}
		if r.Subset != i {
			t.Fatalf("order broken: %+v", r)
		}
	}
}

func TestNewRequiresHandlers(t *testing.T) {
	if _, err := New(nil, WaitAll, Options{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestQueueFullFailsFast(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, _ interface{}) (interface{}, error) {
		<-release
		return nil, nil
	}
	cl, err := New([]Handler{blocking}, WaitAll, Options{QueueLen: 1, Deadline: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the worker and fill the 1-slot mailbox deterministically.
	parked := []<-chan SubResult{park(cl, 0, blocking), park(cl, 0, blocking)}
	res, err := cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %+v", res[0])
	}
	close(release)
	<-parked[0]
	<-parked[1]
	cl.Close()
}

func TestContextCancellation(t *testing.T) {
	cl, err := New([]Handler{sleepHandler(500*time.Millisecond, nil)}, WaitAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := cl.Call(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("cancellation did not unblock Call")
	}
	if res[0].Err == nil {
		t.Fatalf("expected context error: %+v", res[0])
	}
}

func TestCloseIdempotentAndRejectsCalls(t *testing.T) {
	cl, err := New([]Handler{sleepHandler(time.Millisecond, nil)}, WaitAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	cl.Close()
	if _, err := cl.Call(context.Background(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	cl, err := New([]Handler{sleepHandler(time.Millisecond, nil), sleepHandler(time.Millisecond, nil)}, WaitAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 5; i++ {
		if _, err := cl.Call(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := cl.Stats()
	if st.SubOps != 10 {
		t.Fatalf("SubOps = %d", st.SubOps)
	}
	if st.P999Ms <= 0 {
		t.Fatalf("P999 = %v", st.P999Ms)
	}
}

func TestConcurrentCalls(t *testing.T) {
	cl, err := New([]Handler{
		sleepHandler(time.Millisecond, 0),
		sleepHandler(time.Millisecond, 1),
		sleepHandler(time.Millisecond, 2),
		sleepHandler(time.Millisecond, 3),
	}, WaitAll, Options{QueueLen: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg int32 = 20
	errCh := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func() {
			_, err := cl.Call(context.Background(), nil)
			errCh <- err
			atomic.AddInt32(&wg, -1)
		}()
	}
	for i := 0; i < 20; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	cl, err := New([]Handler{func(context.Context, interface{}) (interface{}, error) {
		return nil, boom
	}}, WaitAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, boom) {
		t.Fatalf("error lost: %+v", res[0])
	}
}

func TestReplicaSelfIsSkipped(t *testing.T) {
	// On one component the replica's target, the next component, is the
	// primary's own; a replica there would be useless, so the hedge must
	// not fire.
	cl, err := New([]Handler{sleepHandler(50*time.Millisecond, nil)}, Hedged, Options{
		HedgeFloor: 2 * time.Millisecond,
		Deadline:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Call(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if cl.Stats().Hedges != 0 {
		t.Fatal("self-replica hedge fired")
	}
}

func TestCloseRacesHedgeEnqueue(t *testing.T) {
	// A hedge timer's AfterFunc can fire concurrently with Close: Call
	// returns once the primary replies, timer.Stop does not wait for a
	// running callback, and Close may then drain calls and stop workers
	// while the callback still enqueues onto a mailbox. Mailboxes are
	// never closed, so the late enqueue must be harmless. Run many
	// iterations so -race gets real interleavings to check.
	for iter := 0; iter < 30; iter++ {
		cl, err := New([]Handler{
			sleepHandler(100*time.Microsecond, 0),
			sleepHandler(100*time.Microsecond, 1),
		}, Hedged, Options{
			// A sub-microsecond floor makes nearly every call arm a hedge
			// that fires while the primary is still running.
			HedgeFloor: time.Nanosecond,
			Deadline:   time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if _, err := cl.Call(context.Background(), nil); err != nil && !errors.Is(err, ErrClosed) {
						t.Error(err)
						return
					}
				}
			}()
		}
		cl.Close() // races the callers and their in-flight hedge timers
		wg.Wait()
	}
}

func TestPartialGatherExpiredDeadline(t *testing.T) {
	// With a deadline so short it has already passed by the time the
	// gather loop starts, the deadline timer is created with a negative
	// duration. It must fire immediately (not hang), skipping every
	// outstanding sub-operation.
	cl, err := New([]Handler{
		sleepHandler(50*time.Millisecond, 0),
		sleepHandler(50*time.Millisecond, 1),
	}, PartialGather, Options{Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	res, err := cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired deadline blocked Call for %v", elapsed)
	}
	for i, r := range res {
		if !r.Skipped {
			t.Fatalf("sub %d not skipped with expired deadline: %+v", i, r)
		}
	}
}

func TestSetRouterRedirectsSubsets(t *testing.T) {
	// A router that sends every subset to component 1 leaves component
	// 0's worker idle: a blocker parked on component 0 must not delay
	// subset 0's sub-operation.
	cl, err := New([]Handler{
		sleepHandler(time.Millisecond, "zero"),
		sleepHandler(time.Millisecond, "one"),
	}, WaitAll, Options{Deadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRouter(func(subset, n int, depth func(int) int) int { return 1 })
	blockReply := park(cl, 0, sleepHandler(300*time.Millisecond, "blocked"))
	start := time.Now()
	res, err := cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("router did not avoid blocked component: %v", elapsed)
	}
	if res[0].Value != "zero" || res[1].Value != "one" {
		t.Fatalf("routed results wrong: %+v", res)
	}
	// An out-of-range route falls back to the subset's own component.
	cl.SetRouter(func(subset, n int, depth func(int) int) int { return -7 })
	if _, err := cl.Call(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	<-blockReply
}

func TestQueueDepthAndInflightProbes(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, _ interface{}) (interface{}, error) {
		<-release
		return nil, nil
	}
	cl, err := New([]Handler{blocking}, WaitAll, Options{QueueLen: 8, Deadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Components() != 1 || cl.QueueCap() != 8 {
		t.Fatalf("Components=%d QueueCap=%d", cl.Components(), cl.QueueCap())
	}
	// Park jobs behind the blocked worker; depth counts the waiting ones.
	var parked []<-chan SubResult
	for i := 0; i < 4; i++ {
		parked = append(parked, park(cl, 0, blocking))
	}
	// The worker holds one job (busy) and three wait in the mailbox;
	// depth counts both.
	deadline := time.Now().Add(2 * time.Second)
	for cl.QueueDepth(0) != 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := cl.QueueDepth(0); d != 4 {
		t.Fatalf("QueueDepth = %d, want 4 (3 queued + 1 in service)", d)
	}
	if cl.Inflight() != 0 {
		t.Fatalf("Inflight = %d with no Calls", cl.Inflight())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		cl.Call(context.Background(), nil)
	}()
	for cl.Inflight() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cl.Inflight() != 1 {
		t.Fatalf("Inflight = %d with one Call running", cl.Inflight())
	}
	close(release)
	<-done
	for _, p := range parked {
		<-p
	}
	cl.Close()
}

func TestHedgeDelayAdaptsToObservedLatency(t *testing.T) {
	cl, err := New([]Handler{sleepHandler(2*time.Millisecond, nil)}, Hedged, Options{
		HedgeFloor: time.Millisecond,
		Deadline:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 200; i++ {
		if _, err := cl.Call(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	// After warm-up the estimate must reflect the ~2ms handler, not the
	// 1ms floor.
	if d := cl.EstimatedP95(); d < 1500*time.Microsecond {
		t.Fatalf("hedge delay %v did not adapt upward", d)
	}
}

// TestCloseWithHedgesArmedLeavesNoGoroutines closes a cluster while
// Hedged calls are parked mid-gather (reissue timers armed, not yet
// due) and asserts the workers and every per-call goroutine are gone.
func TestCloseWithHedgesArmedLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	parked := func(context.Context, interface{}) (interface{}, error) {
		<-release
		return nil, nil
	}
	cl, err := New([]Handler{parked, parked}, Hedged, Options{HedgeFloor: time.Minute, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var calls sync.WaitGroup
	for i := 0; i < 4; i++ {
		calls.Add(1)
		go func() {
			defer calls.Done()
			cl.Call(context.Background(), nil)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); cl.Inflight() != 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("Inflight = %d, want 4", cl.Inflight())
		}
	}
	closed := make(chan struct{})
	go func() { cl.Close(); close(closed) }() // waits for the in-flight calls
	close(release)
	<-closed
	calls.Wait()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// heldTransport keeps every attempt it is sent, for the test to finish.
type heldTransport struct{ sent []Attempt }

func (*heldTransport) QueueDepth(int) int               { return 0 }
func (*heldTransport) Probe(int, *breaker.Breaker) bool { return false }
func (t *heldTransport) Send(_ context.Context, a Attempt, _ interface{}) bool {
	t.sent = append(t.sent, a)
	return true
}

// TestWatchedRecordIsNeverRecycled: a call record whose Done a handler
// asked for (every stdlib child derived from it does) stays out of the
// pool once its last reference is gone, and still answers as its own
// call's context: the child's timer may fire after the handler returned
// and reach it then.
func TestWatchedRecordIsNeverRecycled(t *testing.T) {
	tr := &heldTransport{}
	g := NewGather(tr, GatherConfig{N: 1, Prefix: "t", Label: func(int) string { return `c="0"` }})
	defer g.Close()
	type key struct{}
	c := g.newCall(context.WithValue(context.Background(), key{}, "caller"), nil)
	c.send(0, 0, 0, false)
	child, cancel := context.WithDeadline(c, time.Now().Add(time.Hour))
	defer cancel()
	c.end(context.Canceled) // Call returns
	c.unref()
	tr.sent[0].Done(Result{Outcome: OutcomeAnswered, Value: 1}) // the last reference
	for i := 0; i < 4; i++ {
		if got, _ := g.records.Get().(*call); got == c {
			t.Fatal("a record whose Done was asked for went back to the pool")
		}
	}
	if v := child.Value(key{}); v != "caller" || c.g != g {
		t.Fatalf("a watched record after its call reads value %v, Gather %p", v, c.g)
	}
	select {
	case <-child.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("a child of the record was not cancelled when its call ended")
	}
}
