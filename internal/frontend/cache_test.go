package frontend_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// The result cache sits at the front tier, ahead of the frontend: these
// tests check the frontend's side of that arrangement — a hit never
// reaches admission, a coalesced flight is admitted once, and a refresh
// to exact is an admitted Exact-class request like any other.

// cacheComps is the number of component servers behind the frontend.
const cacheComps = 2

// stubAnswer is the one-key aggregation sub-reply every component
// returns: v in each moment.
func stubAnswer(req *wire.Request, v float64) *wire.SubReply {
	return &wire.SubReply{Status: wire.StatusOK, Level: req.Level,
		Agg: &wire.AggResult{Sum: []float64{v}, Cnt: []float64{v}, SumVar: []float64{0}, CntVar: []float64{0}}}
}

// cachedFront stands up cacheComps component servers over handler, a
// WaitAll aggregator, a frontend calibrated to levelAcc that admits
// everything, and a front server with the result cache configured by
// cfg in front of it. stats reads the frontend's counters.
func cachedFront(t *testing.T, levelAcc []float64, cfg rescache.Config, handler netsvc.Handler) (lb *netsvc.Loopback, stats func() frontend.Stats, cache *rescache.Cache) {
	t.Helper()
	cache, err := rescache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	ctrl, err := frontend.NewController(frontend.ControllerConfig{Levels: len(levelAcc), LevelAccuracy: levelAcc})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	lb, err = netsvc.StartLoopback(netsvc.LoopbackSpec{
		Components: cacheComps,
		Handler:    func(int) netsvc.Handler { return handler },
		Server:     netsvc.ServerOptions{Workers: 2},
		Agg:        netsvc.AggregatorOptions{Policy: service.WaitAll, Deadline: 5 * time.Second},
		Front: &netsvc.FrontSpec{
			Frontend: &frontend.Options{Controller: ctrl, Metrics: reg},
			Server:   netsvc.ServerOptions{Cache: cache},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	stats = func() frontend.Stats {
		return frontend.Stats{
			Admitted: reg.Counter("frontend_admitted_total").Value(),
			Degraded: reg.Counter("frontend_degraded_total").Value(),
			Rejected: reg.Counter("frontend_rejected_total").Value(),
		}
	}
	return lb, stats, cache
}

// sumReq is the whole-service SUM request the tests repeat, at one class.
func sumReq(kind uint8, minAcc float64) *wire.Request {
	return &wire.Request{Kind: wire.KindAgg, Subset: -1, SLO: kind, MinAccuracy: minAcc, Level: wire.NoLevel,
		Agg: &wire.AggRequest{Op: uint8(agg.Sum), Lo: 0, Hi: 1}}
}

func TestCacheHonorsBoundedFloorAndEpoch(t *testing.T) {
	// Exact-class sub-requests answer 1, approximate ones 0.5: a reply's
	// sum tells which computation it came from.
	var calls atomic.Int64
	lb, stats, cache := cachedFront(t, []float64{0.6, 0.95}, rescache.Config{Capacity: 64, RefreshBelow: 1e-9},
		func(ctx context.Context, req *wire.Request) *wire.SubReply {
			calls.Add(1)
			if req.SLO == wire.SLOExact {
				return stubAnswer(req, 1)
			}
			return stubAnswer(req, 0.5)
		})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	call := func(req *wire.Request) *wire.Reply {
		t.Helper()
		rep, err := lb.Client.Call(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != wire.ReplyOK {
			t.Fatalf("reply status %d: %s", rep.Status, rep.Err)
		}
		return rep
	}

	// Idle: computed at the finest level, recorded accuracy 0.95.
	if rep := call(sumReq(wire.SLOBounded, 0.9)); rep.Cached {
		t.Fatal("first call cannot be a cache hit")
	}
	rep := call(sumReq(wire.SLOBounded, 0.9))
	if !rep.Cached || rep.Level != 1 {
		t.Fatalf("bounded hit: cached %v level %d, want a hit from level 1 (accuracy 0.95)", rep.Cached, rep.Level)
	}
	// A floor above the recorded accuracy must recompute — a hit would
	// violate the Bounded contract.
	if rep := call(sumReq(wire.SLOBounded, 0.99)); rep.Cached {
		t.Fatal("served below the Bounded floor")
	}
	// Exact requests only match exact entries; 0.95 is not enough.
	if rep := call(sumReq(wire.SLOExact, 0)); rep.Cached || rep.Agg.Sum[0] != cacheComps {
		t.Fatalf("Exact request over an inexact entry: cached %v sum %v", rep.Cached, rep.Agg.Sum[0])
	}
	// The Exact computation stored accuracy 1: now Exact hits, and the
	// hit holds the exact answer.
	if rep := call(sumReq(wire.SLOExact, 0)); !rep.Cached || rep.Agg.Sum[0] != cacheComps {
		t.Fatalf("exact hit: cached %v sum %v", rep.Cached, rep.Agg.Sum[0])
	}
	// A synopsis update bumps the epoch: the entry is stale.
	before := calls.Load()
	cache.BumpEpoch()
	if rep := call(sumReq(wire.SLOBounded, 0.9)); rep.Cached || calls.Load() != before+cacheComps {
		t.Fatal("stale entry served after epoch bump")
	}
	// Only the four misses reached the frontend; the two hits never did.
	if st := stats(); st.Admitted != 4 || st.Rejected != 0 {
		t.Fatalf("frontend stats = %+v, want 4 admitted", st)
	}
}

func TestCacheCoalescesThroughFrontend(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	lb, stats, _ := cachedFront(t, []float64{0.9}, rescache.Config{Capacity: 64, RefreshBelow: 1e-9},
		func(ctx context.Context, req *wire.Request) *wire.SubReply {
			calls.Add(1)
			<-release
			return stubAnswer(req, 1)
		})
	const waiters = 12
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := lb.Client.Call(context.Background(), sumReq(wire.SLOBestEffort, 0))
			if err != nil {
				t.Error(err)
				return
			}
			if rep.Status != wire.ReplyOK {
				t.Errorf("reply status %d: %s", rep.Status, rep.Err)
			}
			if rep.Cached {
				hits.Add(1)
			}
		}()
	}
	// Let the winner reach the handlers and the waiters pile onto the
	// flight, then release.
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() < cacheComps && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls.Load() != cacheComps {
		t.Fatalf("%d sub-operations for %d concurrent identical requests, want one fan-out of %d",
			calls.Load(), waiters, cacheComps)
	}
	if hits.Load() != waiters-1 {
		t.Fatalf("%d waiters shared the computation, want %d", hits.Load(), waiters-1)
	}
	if st := stats(); st.Admitted != 1 {
		t.Fatalf("frontend stats = %+v, want the one flight admitted once", st)
	}
}

func TestCacheRefreshUpgradesThroughAdmission(t *testing.T) {
	var exactCalls atomic.Int64
	lb, stats, _ := cachedFront(t, []float64{0.6, 0.95},
		rescache.Config{Capacity: 64, RefreshBelow: 1, RefreshInterval: time.Millisecond},
		func(ctx context.Context, req *wire.Request) *wire.SubReply {
			if req.SLO == wire.SLOExact {
				exactCalls.Add(1)
				return stubAnswer(req, 1)
			}
			return stubAnswer(req, 0.5)
		})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req := sumReq(wire.SLOBestEffort, 0)
	if _, err := lb.Client.Call(ctx, req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rep, err := lb.Client.Call(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cached && rep.Agg.Sum[0] == cacheComps {
			if exactCalls.Load() == 0 {
				t.Fatal("refresh did not go through the Exact path")
			}
			// The foreground miss and the refresh were both admitted.
			if st := stats(); st.Admitted < 2 {
				t.Fatalf("frontend stats = %+v: the refresh bypassed admission", st)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("entry never refreshed to exact")
}
