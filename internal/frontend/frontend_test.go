package frontend

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/service"
)

// levelRecorder builds handlers that record the ladder level each
// sub-operation saw.
func levelRecorder(levels *atomic.Int64, noLevel *atomic.Int64) service.Handler {
	return func(ctx context.Context, _ interface{}) (interface{}, error) {
		if lv, ok := LevelFrom(ctx); ok {
			levels.Store(int64(lv))
		} else {
			noLevel.Add(1)
		}
		return true, nil
	}
}

func TestFrontendCallSelectsLevel(t *testing.T) {
	var seen, missing atomic.Int64
	cl, err := service.New([]service.Handler{
		levelRecorder(&seen, &missing),
		levelRecorder(&seen, &missing),
	}, service.WaitAll, service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctrl, err := NewController(ControllerConfig{Levels: 3, LevelAccuracy: []float64{0.5, 0.9, 1}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cl, Options{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Call(context.Background(), nil, BestEffortSLO())
	if err != nil {
		t.Fatal(err)
	}
	// Idle cluster: finest level, accuracy estimate 1, level visible to
	// handlers via the context.
	if res.Level != 2 || res.EstimatedAccuracy != 1 {
		t.Fatalf("result = %+v", res)
	}
	// The effective SLO rides along for handlers that honor exactness.
	if slo, ok := SLOFrom(res); !ok || slo.Kind != BestEffort {
		t.Fatalf("SLOFrom = %v, %v", slo, ok)
	}
	if _, ok := SLOFrom(context.Background()); ok {
		t.Fatal("SLOFrom on a bare context")
	}
	if seen.Load() != 2 || missing.Load() != 0 {
		t.Fatalf("handler saw level %d (missing %d)", seen.Load(), missing.Load())
	}
	if len(res.Sub) != 2 {
		t.Fatalf("sub results = %d", len(res.Sub))
	}
	if st := f.Stats(); st.Admitted != 1 || st.Rejected != 0 || st.Degraded != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFrontendRejects(t *testing.T) {
	cl, err := service.New([]service.Handler{
		func(context.Context, interface{}) (interface{}, error) { return nil, nil },
	}, service.WaitAll, service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f, err := New(cl, Options{
		// A drained zero-rate bucket rejects everything after the first
		// request.
		Admission: []AdmissionPolicy{NewTokenBucket(0, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Call(context.Background(), nil, BestEffortSLO()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Call(context.Background(), nil, BestEffortSLO()); !errors.Is(err, ErrRejected) {
		t.Fatalf("expected ErrRejected, got %v", err)
	}
	if st := f.Stats(); st.Admitted != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// alwaysDegrade forces the Degrade verdict.
type alwaysDegrade struct{}

func (alwaysDegrade) Admit(float64, Load) Decision { return Degrade }

func TestFrontendDegradeDemotesClassButNotExact(t *testing.T) {
	var lastKind atomic.Int64
	cl, err := service.New([]service.Handler{
		func(ctx context.Context, _ interface{}) (interface{}, error) {
			if slo, ok := SLOFrom(ctx); ok {
				lastKind.Store(int64(slo.Kind))
			}
			return true, nil
		},
	}, service.WaitAll, service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctrl, err := NewController(ControllerConfig{Levels: 2, LevelAccuracy: []float64{0.5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cl, Options{
		Admission:  []AdmissionPolicy{alwaysDegrade{}},
		Controller: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Call(context.Background(), nil, BoundedSLO(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.SLO.Kind != BestEffort {
		t.Fatalf("bounded request not demoted: %+v", res)
	}
	// Exact keeps its guarantee under Degrade.
	res, err = f.Call(context.Background(), nil, ExactSLO())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.SLO.Kind != Exact || res.Level != 1 {
		t.Fatalf("exact request demoted: %+v", res)
	}
	// The handler saw the effective class, so it can bypass its
	// synopsis for Exact requests.
	if SLOKind(lastKind.Load()) != Exact {
		t.Fatalf("handler saw class %v", SLOKind(lastKind.Load()))
	}
	// BestEffort has no class to lose: a Degrade verdict must not
	// count it as downgraded.
	res, err = f.Call(context.Background(), nil, BestEffortSLO())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("best-effort request marked degraded: %+v", res)
	}
	if st := f.Stats(); st.Degraded != 1 || st.Admitted != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFrontendNilControllerLeavesLevelUnset(t *testing.T) {
	// Without a degradation controller no level is attached: handlers
	// see LevelFrom ok=false (and fall back to their finest synopsis),
	// matching the simulator's nil-controller Level of -1.
	var seen, missing atomic.Int64
	cl, err := service.New([]service.Handler{levelRecorder(&seen, &missing)},
		service.WaitAll, service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f, err := New(cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Call(context.Background(), nil, BestEffortSLO())
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != -1 || res.EstimatedAccuracy != 1 {
		t.Fatalf("nil-controller result = %+v", res)
	}
	if missing.Load() != 1 {
		t.Fatalf("handler saw a level anyway (missing=%d)", missing.Load())
	}
	if f.Controller() != nil {
		t.Fatal("Controller() not nil")
	}
}

func TestFrontendBurstRespectsMaxInflight(t *testing.T) {
	// 100 concurrent calls against a 4-request cap: admission reserves
	// the in-flight slot before deciding, so even a perfectly
	// simultaneous burst admits exactly 4 (the cluster's own inflight
	// counter lags behind and must not be what the cap reads).
	release := make(chan struct{})
	blocking := func(ctx context.Context, _ interface{}) (interface{}, error) {
		<-release
		return nil, nil
	}
	cl, err := service.New([]service.Handler{blocking}, service.WaitAll,
		service.Options{QueueLen: 256, Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cl, Options{
		Admission: []AdmissionPolicy{NewMaxInflight(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Call(context.Background(), nil, BestEffortSLO())
		}()
	}
	// Admitted calls block in the handler until released; wait for
	// every decision to land, then let them drain.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := f.Stats()
		if st.Admitted+st.Rejected == 100 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	st := f.Stats()
	if st.Admitted != 4 || st.Rejected != 96 {
		t.Fatalf("burst admitted %d / rejected %d, want 4 / 96", st.Admitted, st.Rejected)
	}
	cl.Close()
}

func TestFrontendRoutesAroundHotComponent(t *testing.T) {
	// Component 0's worker is wedged on a slow job; with a 2-replica
	// map and least-loaded routing, subset 0's sub-operations go to
	// component 1 once component 0's mailbox backs up, so calls stay
	// fast.
	block := make(chan struct{})
	var wedged atomic.Bool
	h0 := func(ctx context.Context, _ interface{}) (interface{}, error) {
		if wedged.CompareAndSwap(false, true) {
			<-block
		}
		return "zero", nil
	}
	h1 := func(ctx context.Context, _ interface{}) (interface{}, error) { return "one", nil }
	cl, err := service.New([]service.Handler{h0, h1}, service.WaitAll,
		service.Options{Deadline: 5 * time.Second, QueueLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Unblock the wedged handler before Close waits for in-flight calls.
	defer cl.Close()
	defer close(block)
	f, err := New(cl, Options{Replicas: 2, Router: NewLeastLoaded()})
	if err != nil {
		t.Fatal(err)
	}
	// First call wedges component 0's worker (its subset-0 job blocks),
	// so run it in the background and give the worker time to pick the
	// job up.
	go f.Call(context.Background(), nil, BestEffortSLO())
	deadline := time.Now().Add(2 * time.Second)
	for !wedged.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Subsequent calls must route subset 0 to component 1 (depth 0)
	// and return promptly despite the wedged worker.
	start := time.Now()
	res, err := f.Call(context.Background(), nil, BestEffortSLO())
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("call stuck behind wedged component: %v", elapsed)
	}
	if res.Sub[0].Value != "zero" || res.Sub[1].Value != "one" {
		t.Fatalf("routed results: %+v", res.Sub)
	}
}

func TestSnapshotReflectsQueues(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, _ interface{}) (interface{}, error) {
		<-release
		return nil, nil
	}
	cl, err := service.New([]service.Handler{blocking, blocking}, service.WaitAll,
		service.Options{QueueLen: 4, Deadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cl, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if l := f.Snapshot(); l.MaxQueueFrac != 0 || l.Inflight != 0 {
		t.Fatalf("idle snapshot = %+v", l)
	}
	// Three calls: each wedges both workers' current job and then queues.
	done := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		go func() {
			f.Call(context.Background(), nil, BestEffortSLO())
			done <- struct{}{}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		l := f.Snapshot()
		if l.Inflight == 3 && l.MaxQueueFrac >= 0.5 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	l := f.Snapshot()
	if l.Inflight != 3 {
		t.Fatalf("inflight = %d", l.Inflight)
	}
	// Workers hold one job each; two more wait per mailbox → 2/4.
	if l.MaxQueueFrac < 0.5 || l.QueueFrac <= 0 {
		t.Fatalf("queue snapshot = %+v", l)
	}
	close(release)
	for i := 0; i < 3; i++ {
		<-done
	}
	cl.Close()
}

// nopBackend gathers a fixed answer at once, so a test measures the
// frontend alone; it keeps the context its last fan-out ran under.
type nopBackend struct {
	subs []service.SubResult
	ran  context.Context
}

func (b *nopBackend) Components() int             { return len(b.subs) }
func (b *nopBackend) QueueCap() int               { return 64 }
func (b *nopBackend) QueueDepth(int) int          { return 0 }
func (b *nopBackend) Inflight() int               { return 0 }
func (b *nopBackend) EstimatedP95() time.Duration { return 0 }
func (b *nopBackend) Deadline() time.Duration     { return time.Second }
func (b *nopBackend) SetRouter(service.RouteFunc) {}
func (b *nopBackend) Call(ctx context.Context, _ interface{}) ([]service.SubResult, error) {
	b.ran = ctx
	return b.subs, nil
}

// TestCallIntoDoesNotAllocate: the call record is the fan-out's context,
// so CallInto adds nothing to a request's allocations, with a controller
// or without one, and Call only the record. The record a handler sees
// answers the effective class (here downgraded from Bounded by
// admission) and the chosen level, or no level without a controller.
func TestCallIntoDoesNotAllocate(t *testing.T) {
	ctrl, err := NewController(ControllerConfig{Levels: 3, LevelAccuracy: []float64{0.5, 0.9, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		ctrl  *Controller
		level int
	}{
		{"no controller", nil, -1},
		{"controller", ctrl, 2},
	} {
		b := &nopBackend{subs: make([]service.SubResult, 4)}
		for i := range b.subs {
			b.subs[i].Value = true
		}
		f, err := New(b, Options{Controller: c.ctrl, Admission: []AdmissionPolicy{alwaysDegrade{}}})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		const runs = 100
		recs := make([]Result, runs+1) // AllocsPerRun calls once more to warm up
		i := 0
		n := testing.AllocsPerRun(runs, func() {
			if err := f.CallInto(ctx, nil, BoundedSLO(0.9), &recs[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if n != 0 {
			t.Errorf("%s: CallInto allocates %v times, want 0", c.name, n)
		}
		rec := &recs[runs]
		if b.ran != context.Context(rec) {
			t.Errorf("%s: the fan-out ran under %T, not the call record", c.name, b.ran)
		}
		if n := testing.AllocsPerRun(runs, func() { _, _ = f.Call(ctx, nil, BoundedSLO(0.9)) }); n != 1 {
			t.Errorf("%s: Call allocates %v times, want 1 (the record)", c.name, n)
		}
		if slo, ok := SLOFrom(rec); !ok || slo != BestEffortSLO() {
			t.Errorf("%s: SLOFrom(record) = %v, %v; want the downgraded BestEffort", c.name, slo, ok)
		}
		if lv, ok := LevelFrom(rec); ok != (c.level >= 0) || (ok && lv != c.level) {
			t.Errorf("%s: LevelFrom(record) = %d, %v; want level %d", c.name, lv, ok, c.level)
		}
		if !rec.Degraded || rec.Level != c.level || rec.Answered != 4 || rec.EstimatedAccuracy == 0 {
			t.Errorf("%s: record %+v", c.name, rec)
		}
	}
}

// TestRecordOutlivesAbandonedHandler: a PartialGather call returns
// without its straggler, whose handler reads the call record only
// afterwards. Under -race this is the record's lifetime contract in
// process: never reused, and still the request's class and level.
func TestRecordOutlivesAbandonedHandler(t *testing.T) {
	release := make(chan struct{})
	type seen struct {
		slo   SLO
		level int
		ok    bool
	}
	late := make(chan seen, 1)
	straggler := func(ctx context.Context, _ interface{}) (interface{}, error) {
		<-release
		slo, ok := SLOFrom(ctx)
		lv, lok := LevelFrom(ctx)
		late <- seen{slo, lv, ok && lok}
		return true, nil
	}
	prompt := func(context.Context, interface{}) (interface{}, error) { return true, nil }
	cl, err := service.New([]service.Handler{prompt, straggler}, service.PartialGather,
		service.Options{Deadline: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctrl, err := NewController(ControllerConfig{Levels: 2, LevelAccuracy: []float64{0.8, 1}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cl, Options{Controller: ctrl, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := BoundedSLO(0.3)
	res, err := f.Call(context.Background(), nil, want)
	if err != nil || res.Answered != 1 {
		t.Fatalf("partial call: result %+v, err %v", res, err)
	}
	close(release)
	got := <-late
	if !got.ok || got.slo != want || got.level != res.Level {
		t.Fatalf("abandoned handler read class %v level %d (ok %v), want %v level %d", got.slo, got.level, got.ok, want, res.Level)
	}
}
