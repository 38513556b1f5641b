package frontend

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/rescache"
	"accuracytrader/internal/service"
)

// cachedFrontend builds a one-component cluster behind a frontend with
// a result cache, counting handler invocations. Every payload is its
// own cache key (payloads are small ints).
func cachedFrontend(t *testing.T, opts Options, handler service.Handler) (*Frontend, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	counted := func(ctx context.Context, payload interface{}) (interface{}, error) {
		calls.Add(1)
		return handler(ctx, payload)
	}
	cl, err := service.New([]service.Handler{counted}, service.WaitAll,
		service.Options{Deadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if opts.Cache == nil {
		// A frontend with a cache installs the refresh worker; these
		// tests count handler calls, so idle it (nothing is below 1e-9).
		cache, err := rescache.New(rescache.Config{Capacity: 64, RefreshBelow: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cache.Close)
		opts.Cache = cache
	}
	if opts.CacheKey == nil {
		opts.CacheKey = func(payload interface{}) (uint64, bool) {
			k, ok := payload.(int)
			return uint64(k), ok
		}
	}
	if opts.Controller == nil {
		// The cache requires a controller for its accuracy tags; a
		// single level at 0.9 keeps the mechanics-focused tests simple.
		ctrl, err := NewController(ControllerConfig{Levels: 1, LevelAccuracy: []float64{0.9}})
		if err != nil {
			t.Fatal(err)
		}
		opts.Controller = ctrl
	}
	f, err := New(cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f, &calls
}

func TestCacheHitBypassesAdmission(t *testing.T) {
	// A one-token bucket: without the cache the second call would be
	// rejected; a cache hit must not consume admission state at all.
	f, calls := cachedFrontend(t, Options{
		Admission: []AdmissionPolicy{NewTokenBucket(0, 1)},
	}, func(ctx context.Context, p interface{}) (interface{}, error) { return "v", nil })

	res, err := f.Call(context.Background(), 7, BestEffortSLO())
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache {
		t.Fatal("first call cannot be a cache hit")
	}
	for i := 0; i < 3; i++ {
		res, err = f.Call(context.Background(), 7, BestEffortSLO())
		if err != nil {
			t.Fatalf("cache hit went through the drained token bucket: %v", err)
		}
		if !res.FromCache || res.Sub[0].Value != "v" {
			t.Fatalf("hit result = %+v", res)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times", calls.Load())
	}
	// A different key is a real miss and hits the empty bucket.
	if _, err := f.Call(context.Background(), 8, BestEffortSLO()); err == nil {
		t.Fatal("distinct-key miss skipped admission")
	}
	st := f.Stats()
	if st.CacheHits != 3 || st.Admitted != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheHonorsBoundedFloorAndEpoch(t *testing.T) {
	ctrl, err := NewController(ControllerConfig{Levels: 2, LevelAccuracy: []float64{0.6, 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	f, calls := cachedFrontend(t, Options{Controller: ctrl},
		func(ctx context.Context, p interface{}) (interface{}, error) { return "v", nil })

	// Idle: computed at the finest level, recorded accuracy 0.95.
	if _, err := f.Call(context.Background(), 1, BoundedSLO(0.9)); err != nil {
		t.Fatal(err)
	}
	res, err := f.Call(context.Background(), 1, BoundedSLO(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCache || res.EstimatedAccuracy != 0.95 {
		t.Fatalf("bounded hit = %+v", res)
	}
	// A floor above the recorded accuracy must recompute — a hit would
	// violate the Bounded contract.
	res, err = f.Call(context.Background(), 1, BoundedSLO(0.99))
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache {
		t.Fatal("served below the Bounded floor")
	}
	// Exact requests only match exact entries; 0.95 is not enough.
	res, err = f.Call(context.Background(), 1, ExactSLO())
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache {
		t.Fatal("inexact entry served an Exact request")
	}
	// The Exact computation stored accuracy 1: now Exact hits.
	res, err = f.Call(context.Background(), 1, ExactSLO())
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCache || res.EstimatedAccuracy != 1 {
		t.Fatalf("exact hit = %+v", res)
	}
	// A synopsis update bumps the epoch: the entry is stale.
	before := calls.Load()
	f.Cache().BumpEpoch()
	res, err = f.Call(context.Background(), 1, BoundedSLO(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache || calls.Load() != before+1 {
		t.Fatal("stale entry served after epoch bump")
	}
}

func TestCacheCoalescesThroughFrontend(t *testing.T) {
	release := make(chan struct{})
	f, calls := cachedFrontend(t, Options{},
		func(ctx context.Context, p interface{}) (interface{}, error) {
			<-release
			return "v", nil
		})
	const waiters = 12
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := f.Call(context.Background(), 3, BestEffortSLO())
			if err != nil {
				t.Error(err)
				return
			}
			if res.FromCache {
				hits.Add(1)
			}
		}()
	}
	// Let the winner reach the handler and the waiters pile onto the
	// flight, then release.
	deadline := time.Now().Add(2 * time.Second)
	for f.Stats().Admitted == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("%d computations for %d concurrent identical requests", calls.Load(), waiters)
	}
	if hits.Load() != waiters-1 {
		t.Fatalf("%d waiters shared the computation, want %d", hits.Load(), waiters-1)
	}
}

func TestCacheSkipsIncompleteResults(t *testing.T) {
	// A fan-out that errored must not be cached: its accuracy tag would
	// lie about what the entry holds.
	var fail atomic.Bool
	fail.Store(true)
	f, calls := cachedFrontend(t, Options{},
		func(ctx context.Context, p interface{}) (interface{}, error) {
			if fail.Load() {
				return nil, context.DeadlineExceeded
			}
			return "v", nil
		})
	if _, err := f.Call(context.Background(), 4, BestEffortSLO()); err != nil {
		t.Fatal(err) // sub-errors surface in Sub, not as a Call error
	}
	fail.Store(false)
	res, err := f.Call(context.Background(), 4, BestEffortSLO())
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache {
		t.Fatal("failed fan-out was served from cache")
	}
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", calls.Load())
	}
	// The clean result was stored: third call hits.
	res, err = f.Call(context.Background(), 4, BestEffortSLO())
	if err != nil {
		t.Fatal(err)
	}
	if !res.FromCache {
		t.Fatal("clean result not cached")
	}
}

func TestCacheRefreshUpgradesThroughAdmission(t *testing.T) {
	ctrl, err := NewController(ControllerConfig{Levels: 2, LevelAccuracy: []float64{0.6, 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := rescache.New(rescache.Config{Capacity: 64, RefreshBelow: 1, RefreshInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	var exactCalls atomic.Int64
	f, _ := cachedFrontend(t, Options{Controller: ctrl, Cache: cache},
		func(ctx context.Context, p interface{}) (interface{}, error) {
			if slo, ok := SLOFrom(ctx); ok && slo.Kind == Exact {
				exactCalls.Add(1)
				return "exact", nil
			}
			return "approx", nil
		})
	if _, err := f.Call(context.Background(), 5, BestEffortSLO()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		res, err := f.Call(context.Background(), 5, BestEffortSLO())
		if err != nil {
			t.Fatal(err)
		}
		if res.FromCache && res.EstimatedAccuracy == 1 {
			if res.Sub[0].Value != "exact" {
				t.Fatalf("refreshed entry holds %v", res.Sub[0].Value)
			}
			if exactCalls.Load() == 0 {
				t.Fatal("refresh did not go through the Exact path")
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("entry never refreshed to exact")
}
