package netsvc

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/wire"
)

// startCachedFrontServer builds the full stack — component servers,
// aggregator, frontend behind the given admission policies, result
// cache — counting backend handler invocations.
func startCachedFrontServer(t *testing.T, n int, admission []frontend.AdmissionPolicy, cacheCfg rescache.Config) (*FrontServer, *rescache.Cache, *Client, *atomic.Int64, []*agg.Component) {
	t.Helper()
	comps := buildAggComps(t, n)
	var backendCalls atomic.Int64
	inner := NewAggBackend(comps, BackendOptions{})
	cache, err := rescache.New(cacheCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	lb := startLoopback(t, LoopbackSpec{
		Components: n,
		Handler: every(func(ctx context.Context, req *wire.Request) *wire.SubReply {
			backendCalls.Add(1)
			return inner(ctx, req)
		}),
		Server: ServerOptions{Workers: 2},
		Agg:    waitAll,
		Front:  calibratedFront(admission, ServerOptions{}, func(fs *FrontServer) error { return fs.EnableCache(cache) }),
	})
	fs, cl := lb.Front, lb.Client
	return fs, cache, cl, &backendCalls, comps
}

// TestFrontServerCacheHitAndFloor covers the networked cache end to
// end: a repeat request is answered from the cache (Cached flag set,
// no backend work), a Bounded request whose floor exceeds the entry's
// recorded accuracy recomputes, an Exact request misses every inexact
// entry until its own exact answer is stored, and an epoch bump
// invalidates.
func TestFrontServerCacheHitAndFloor(t *testing.T) {
	const n = 2
	// RefreshBelow under every entry's accuracy: the background worker
	// stays idle, so backend-call counts are deterministic.
	_, cache, cl, backendCalls, _ := startCachedFrontServer(t, n, nil, rescache.Config{Capacity: 64, RefreshBelow: 0.01})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := aggReq(agg.Sum, 0, math.Inf(1))
	req.SLO, req.MinAccuracy = wire.SLOBounded, 0.9

	rep1, err := cl.Call(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Status != wire.ReplyOK || rep1.Cached {
		t.Fatalf("first reply = status %d cached %v", rep1.Status, rep1.Cached)
	}
	calls := backendCalls.Load()
	if calls == 0 {
		t.Fatal("first request did no backend work")
	}

	// Same semantic request (metadata may differ): served from cache.
	rep2, err := cl.Call(ctx, aggReqBounded(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Cached {
		t.Fatal("repeat request not served from cache")
	}
	if backendCalls.Load() != calls {
		t.Fatal("cache hit still did backend work")
	}
	if rep2.ID == rep1.ID {
		t.Fatal("cached reply not re-stamped with its own request ID")
	}
	// The cached payload is the same composed answer.
	for k := range rep1.Agg.Sum {
		if rep1.Agg.Sum[k] != rep2.Agg.Sum[k] {
			t.Fatalf("cached answer diverged at key %d", k)
		}
	}

	// A floor above the entry's recorded accuracy (finest level 0.97)
	// must recompute, not serve the entry.
	strict := aggReqBounded(0.99)
	rep3, err := cl.Call(ctx, strict)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Cached {
		t.Fatal("entry served above its recorded accuracy")
	}
	if backendCalls.Load() == calls {
		t.Fatal("floor-violating lookup did not recompute")
	}

	// Exact requests only match exact entries: the 0.97 entry is not
	// enough, so the first Exact request computes, and the accuracy-1
	// answer it stores serves the repeat.
	exact := aggReq(agg.Sum, 0, math.Inf(1))
	exact.SLO = wire.SLOExact
	calls = backendCalls.Load()
	rep5, err := cl.Call(ctx, exact)
	if err != nil {
		t.Fatal(err)
	}
	if rep5.Status != wire.ReplyOK || rep5.Cached || backendCalls.Load() == calls {
		t.Fatalf("Exact request over an inexact entry: status %d cached %v", rep5.Status, rep5.Cached)
	}
	calls = backendCalls.Load()
	rep6, err := cl.Call(ctx, exact)
	if err != nil {
		t.Fatal(err)
	}
	if !rep6.Cached || backendCalls.Load() != calls {
		t.Fatal("stored exact answer did not serve the Exact repeat")
	}

	// Epoch bump: the data changed, the entry must not serve again.
	cache.BumpEpoch()
	calls = backendCalls.Load()
	rep4, err := cl.Call(ctx, aggReqBounded(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Cached || backendCalls.Load() == calls {
		t.Fatal("stale entry served after epoch bump")
	}
	if st := cache.Stats(); st.Hits+st.Coalesced != 2 {
		t.Fatalf("cache stats = %+v, want 2 requests answered from the cache", st)
	}
}

// TestFrontServerCacheHitBypassesAdmission: a cache hit consumes no
// admission state. Behind a one-token bucket the first miss takes the
// token, its repeats are answered from the cache, and a request with a
// distinct key is a real miss that the drained bucket rejects — and a
// rejection is never stored, so its repeat is rejected afresh.
func TestFrontServerCacheHitBypassesAdmission(t *testing.T) {
	const n = 2
	fs, cache, cl, backendCalls, _ := startCachedFrontServer(t, n,
		[]frontend.AdmissionPolicy{frontend.NewTokenBucket(0, 1)}, rescache.Config{Capacity: 64, RefreshBelow: 0.01})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	rep, err := cl.Call(ctx, aggReqBounded(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != wire.ReplyOK || rep.Cached {
		t.Fatalf("first reply = status %d cached %v err %q", rep.Status, rep.Cached, rep.Err)
	}
	calls := backendCalls.Load()
	for i := 0; i < 3; i++ {
		rep, err = cl.Call(ctx, aggReqBounded(0.9))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != wire.ReplyOK || !rep.Cached {
			t.Fatalf("repeat %d went through the drained token bucket: status %d cached %v err %q",
				i, rep.Status, rep.Cached, rep.Err)
		}
	}
	if backendCalls.Load() != calls {
		t.Fatal("cache hits did backend work")
	}
	distinct := aggReq(agg.Sum, 0, 100)
	distinct.SLO, distinct.MinAccuracy = wire.SLOBounded, 0.9
	for i := 0; i < 2; i++ {
		rep, err = cl.Call(ctx, distinct)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != wire.ReplyRejected || rep.Cached {
			t.Fatalf("distinct-key call %d skipped admission: status %d cached %v", i, rep.Status, rep.Cached)
		}
	}
	if st := fs.fe.Stats(); st.Admitted != 1 || st.Rejected != 2 {
		t.Fatalf("frontend stats = %+v, want 1 admitted and 2 rejected", st)
	}
	if st := cache.Stats(); st.Hits != 3 || st.Stored != 1 {
		t.Fatalf("cache stats = %+v, want 3 hits and 1 stored entry", st)
	}
}

// aggReqBounded is the Bounded{minAcc} whole-service SUM request the
// cache tests repeat.
func aggReqBounded(minAcc float64) *wire.Request {
	req := aggReq(agg.Sum, 0, math.Inf(1))
	req.SLO, req.MinAccuracy = wire.SLOBounded, minAcc
	return req
}

// TestFrontServerCoalescesConcurrentMisses: N concurrent identical
// whole-service requests against a cold cache must fan out once.
func TestFrontServerCoalescesConcurrentMisses(t *testing.T) {
	const n = 2
	const clients = 16
	_, cache, cl, backendCalls, _ := startCachedFrontServer(t, n, nil, rescache.Config{Capacity: 64, RefreshBelow: 0.01})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var cached atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := cl.Call(ctx, aggReqBounded(0.9))
			if err != nil {
				t.Error(err)
				return
			}
			if rep.Status != wire.ReplyOK {
				t.Errorf("reply status %d err %q", rep.Status, rep.Err)
			}
			if rep.Cached {
				cached.Add(1)
			}
		}()
	}
	wg.Wait()
	// Exactly one fan-out: n sub-operations total. (The requests race
	// through one multiplexed client connection, so every waiter really
	// is concurrent with the winner.)
	if got := backendCalls.Load(); got != n {
		t.Fatalf("%d backend sub-operations for %d concurrent identical requests, want %d", got, clients, n)
	}
	if cached.Load() != clients-1 {
		t.Fatalf("%d of %d requests shared the computation, want %d", cached.Load(), clients, clients-1)
	}
	// A late-scheduled client hits the freshly stored entry instead of
	// joining the flight; both count as sharing the one computation.
	if st := cache.Stats(); st.Coalesced+st.Hits != clients-1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// TestFrontServerCacheRefreshToExact: a coarse cached entry is upgraded
// to the exact answer by the background worker, so later hits carry
// accuracy 1 — "coarse first, refine later" applied to reuse.
func TestFrontServerCacheRefreshToExact(t *testing.T) {
	const n = 2
	_, cache, cl, _, comps := startCachedFrontServer(t, n, nil, rescache.Config{
		Capacity: 64, RefreshBelow: 1, RefreshInterval: time.Millisecond,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// BestEffort request: computed at the finest synopsis level
	// (recorded accuracy 0.97 < 1), so its entry is a refresh candidate.
	req := aggReq(agg.Sum, 0, math.Inf(1))
	req.SLO = wire.SLOBestEffort
	if _, err := cl.Call(ctx, req); err != nil {
		t.Fatal(err)
	}
	// First hit enqueues the refresh.
	if _, err := cl.Call(ctx, req); err != nil {
		t.Fatal(err)
	}

	exact := agg.NewResult(comps[0].T.NumKeys())
	for _, c := range comps {
		exact.Merge(agg.ExactResult(c, agg.Query{Op: agg.Sum, Lo: 0, Hi: math.Inf(1)}))
	}
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if cache.Stats().Refreshes > 0 {
			rep, err := cl.Call(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Cached {
				t.Fatal("refreshed entry not served from cache")
			}
			got := AggResultOf(rep.Agg)
			for k := range exact.Sum {
				if got.Sum[k] != exact.Sum[k] {
					t.Fatalf("refreshed answer not exact at key %d: %v != %v", k, got.Sum[k], exact.Sum[k])
				}
			}
			return
		}
		cl.Call(ctx, req) // keep hitting so a dropped enqueue retries
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("cache entry never refreshed to exact")
}

// TestCacheKeyDoesNotAllocate: every cache-fronted request, hits
// included, computes its canonical key in a pooled buffer. The pool holds
// *[]byte — a slice header put into the pool's interface would allocate
// on every Put.
func TestCacheKeyDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops at random)")
	}
	s := &FrontServer{}
	req := aggReq(agg.Sum, 0, math.Inf(1))
	want := rescache.Key(wire.AppendCanonicalKey(nil, req))
	if n := testing.AllocsPerRun(100, func() {
		if s.cacheKey(req) != want {
			t.Fatal("pooled cache key differs from the canonical key")
		}
	}); n != 0 {
		t.Fatalf("cacheKey allocates %.0f times per request, want 0", n)
	}
}
