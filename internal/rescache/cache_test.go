package rescache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestStoreGetFloor(t *testing.T) {
	c := mustNew(t, Config{Capacity: 8})
	c.Store(1, nil, "coarse", 0.8)

	if v, acc, ok := c.Get(1, 0.8); !ok || v != "coarse" || acc != 0.8 {
		t.Fatalf("Get at floor = %v %v %v", v, acc, ok)
	}
	// An accuracy floor above the entry's bound must miss: a Bounded
	// request can never be served below its contract.
	if _, _, ok := c.Get(1, 0.9); ok {
		t.Fatal("served below the accuracy floor")
	}
	// Exact floor (1.0) only matches exact entries.
	if _, _, ok := c.Get(1, 1); ok {
		t.Fatal("inexact entry served an Exact floor")
	}
	c.Store(1, nil, "exact", 1)
	if v, _, ok := c.Get(1, 1); !ok || v != "exact" {
		t.Fatalf("exact overwrite not served: %v %v", v, ok)
	}
	st := c.Stats()
	if st.FloorRejects != 2 || st.Stored != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEpochInvalidatesLazily(t *testing.T) {
	c := mustNew(t, Config{Capacity: 8})
	c.Store(7, nil, "old", 1)
	c.BumpEpoch()
	if c.Len() != 1 {
		t.Fatalf("bump eagerly removed entries: len=%d", c.Len())
	}
	if _, _, ok := c.Get(7, 0); ok {
		t.Fatal("stale entry served after epoch bump")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not discarded on lookup: len=%d", c.Len())
	}
	if st := c.Stats(); st.Stale != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Re-stored under the new epoch, the key serves again.
	c.Store(7, nil, "new", 1)
	if v, _, ok := c.Get(7, 0); !ok || v != "new" {
		t.Fatalf("fresh entry not served: %v %v", v, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, Config{Capacity: 4})
	for k := uint64(0); k < 4; k++ {
		c.Store(k, nil, k, 1)
	}
	// Touch 0 so 1 becomes the LRU victim.
	if _, _, ok := c.Get(0, 0); !ok {
		t.Fatal("miss on resident key")
	}
	c.Store(4, nil, 4, 1)
	if _, _, ok := c.Get(1, 0); ok {
		t.Fatal("LRU victim still resident")
	}
	for _, k := range []uint64{0, 2, 3, 4} {
		if _, _, ok := c.Get(k, 0); !ok {
			t.Fatalf("key %d evicted out of LRU order", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCapacityBoundsEntryCount: Capacity is the cache's bound, not a
// per-lock one — more distinct stores than it never hold more entries.
func TestCapacityBoundsEntryCount(t *testing.T) {
	for _, capacity := range []int{4, 100} {
		c := mustNew(t, Config{Capacity: capacity})
		for k := uint64(0); k < uint64(4*capacity); k++ {
			c.Store(k, nil, k, 1)
		}
		if n := c.Len(); n > capacity {
			t.Fatalf("Capacity %d holds %d entries", capacity, n)
		}
		if st := c.Stats(); st.Evictions != int64(3*capacity) {
			t.Fatalf("Capacity %d: %d evictions, want %d", capacity, st.Evictions, 3*capacity)
		}
	}
}

func TestBestEffortFloorLoosensWithLoad(t *testing.T) {
	c := mustNew(t, Config{Capacity: 8, BestEffortFloor: 0.6})
	if f := c.BestEffortFloor(); f != 0.6 {
		t.Fatalf("idle floor = %g", f)
	}
	c.SetLoad(0.5)
	if f := c.BestEffortFloor(); f != 0.3 {
		t.Fatalf("half-load floor = %g", f)
	}
	c.SetLoad(1)
	if f := c.BestEffortFloor(); f != 0 {
		t.Fatalf("full-load floor = %g", f)
	}
	// The slack only moves the BestEffort floor: a coarse entry becomes
	// servable to best-effort lookups under load, while an explicit
	// (Bounded) floor still rejects it.
	c.Store(3, nil, "coarse", 0.35)
	if _, _, ok := c.Get(3, c.BestEffortFloor()); !ok {
		t.Fatal("loosened floor did not admit the coarse entry")
	}
	if _, _, ok := c.Get(3, 0.9); ok {
		t.Fatal("bounded floor loosened by load")
	}
}

func TestDoCoalescesConcurrentMisses(t *testing.T) {
	// Satellite: N goroutines, same key -> exactly one backend
	// computation; run under -race in CI.
	c := mustNew(t, Config{Capacity: 8})
	const waiters = 32
	var computes atomic.Int64
	started := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-started
			v, acc, _, err := c.Serve(context.Background(), 42, 0.5, nil, func() (interface{}, float64, interface{}, error) {
				computes.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the flight open
				return "answer", 0.9, "answer", nil
			})
			if err != nil || v != "answer" || acc != 0.9 {
				t.Errorf("Serve = %v %v %v", v, acc, err)
			}
		}()
	}
	close(started)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computations for %d concurrent identical misses", n, waiters)
	}
	st := c.Stats()
	// Every non-winner either joined the flight (Coalesced) or — if
	// scheduled after the winner stored — hit the fresh entry (Hits);
	// both shapes are correct coalescing.
	if st.Coalesced+st.Hits != waiters-1 {
		t.Fatalf("coalesced %d + hits %d != %d (stats %+v)", st.Coalesced, st.Hits, waiters-1, st)
	}
	// The flight is gone: a later miss computes again.
	_, _, shared, _ := c.Serve(context.Background(), 42, 0.95, nil, func() (interface{}, float64, interface{}, error) {
		computes.Add(1)
		return "exact", 1, "exact", nil
	})
	if shared || computes.Load() != 2 {
		t.Fatalf("follow-up above the cached accuracy did not compute (shared=%v computes=%d)", shared, computes.Load())
	}
}

func TestStoreAtEpochCapture(t *testing.T) {
	// A computation that straddles a BumpEpoch must not produce a
	// current entry: StoreAt stamps the epoch the computation started
	// under, so the entry is born stale.
	c := mustNew(t, Config{Capacity: 8})
	epoch := c.Epoch()
	c.BumpEpoch() // the data changed mid-computation
	c.StoreAt(2, nil, "pre-update answer", 1, epoch)
	if _, _, ok := c.Get(2, 0); ok {
		t.Fatal("pre-update answer served as current after epoch bump")
	}
	// The same pattern through Serve, which captures the epoch itself:
	// compute bumps it mid-flight (standing in for a concurrent synopsis
	// update), so what it keeps is stored under the pre-bump epoch.
	v, _, shared, err := c.Serve(context.Background(), 3, 0, nil, func() (interface{}, float64, interface{}, error) {
		c.BumpEpoch()
		return "stale", 0.9, "stale", nil
	})
	if err != nil || shared || v != "stale" {
		t.Fatalf("Serve = %v %v %v", v, shared, err)
	}
	if st := c.Stats(); st.Stored != 2 {
		t.Fatalf("stored = %d, want 2 (Serve keeps what compute returned)", st.Stored)
	}
	if _, _, ok := c.Get(3, 0); ok {
		t.Fatal("entry stored across a bump served as current")
	}
}

func TestServeKeepNothingAnswersCallerOnly(t *testing.T) {
	// A compute that keeps nothing (rejected, failed, partial) answers
	// its own caller; a concurrent waiter must not share that answer —
	// it re-enters and computes exactly once itself.
	c := mustNew(t, Config{Capacity: 8})
	inFlight := make(chan struct{})
	release := make(chan struct{})
	winner := make(chan struct{})
	go func() {
		defer close(winner)
		v, acc, shared, err := c.Serve(context.Background(), 6, 0, nil, func() (interface{}, float64, interface{}, error) {
			close(inFlight)
			<-release
			return "partial", 0.4, nil, nil
		})
		if err != nil || shared || v != "partial" || acc != 0.4 {
			t.Errorf("winner Serve = %v %v shared=%v err=%v", v, acc, shared, err)
		}
	}()
	<-inFlight
	var computes atomic.Int64
	waiter := make(chan struct{})
	go func() {
		defer close(waiter)
		v, _, shared, err := c.Serve(context.Background(), 6, 0, nil, func() (interface{}, float64, interface{}, error) {
			computes.Add(1)
			return "whole", 0.9, "whole", nil
		})
		if err != nil || shared || v != "whole" {
			t.Errorf("waiter Serve = %v shared=%v err=%v", v, shared, err)
		}
	}()
	// The waiter must be parked on the flight before the winner returns,
	// or it would simply miss and compute without ever having waited.
	for deadline := time.Now().Add(2 * time.Second); c.Stats().Misses < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	close(release)
	<-winner
	<-waiter
	if computes.Load() != 1 {
		t.Fatalf("waiter computed %d times, want 1", computes.Load())
	}
	if st := c.Stats(); st.Stored != 1 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want only the waiter's result stored and nothing coalesced", st)
	}
	if v, _, ok := c.Get(6, 0); !ok || v != "whole" {
		t.Fatalf("Get = %v %v, want the waiter's kept result", v, ok)
	}
}

func TestDoFailedWinnerSerializesWaiters(t *testing.T) {
	// A failed winner (e.g. shed by admission under overload) must not
	// release a thundering herd: the waiters re-enter the flight table
	// and at most one computation runs at a time.
	c := mustNew(t, Config{Capacity: 8})
	const waiters = 16
	var inCompute, maxConcurrent, computes atomic.Int64
	started := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-started
			c.Serve(context.Background(), 8, 0.5, nil, func() (interface{}, float64, interface{}, error) {
				cur := inCompute.Add(1)
				for {
					m := maxConcurrent.Load()
					if cur <= m || maxConcurrent.CompareAndSwap(m, cur) {
						break
					}
				}
				computes.Add(1)
				time.Sleep(2 * time.Millisecond)
				inCompute.Add(-1)
				return nil, 0, nil, context.DeadlineExceeded // every winner fails
			})
		}()
	}
	close(started)
	wg.Wait()
	if computes.Load() != waiters {
		t.Fatalf("%d computations for %d callers whose every winner failed", computes.Load(), waiters)
	}
	if maxConcurrent.Load() != 1 {
		t.Fatalf("%d computations ran concurrently, want serialized rounds of 1", maxConcurrent.Load())
	}
}

func TestDoFloorFallback(t *testing.T) {
	// A waiter whose floor the shared result cannot satisfy must fall
	// back to its own computation instead of accepting a too-coarse
	// answer.
	c := mustNew(t, Config{Capacity: 8})
	inFlight := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Serve(context.Background(), 9, 0, nil, func() (interface{}, float64, interface{}, error) {
			close(inFlight)
			<-release
			return "coarse", 0.5, "coarse", nil
		})
	}()
	<-inFlight
	var ownCompute atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, acc, shared, err := c.Serve(context.Background(), 9, 0.9, nil, func() (interface{}, float64, interface{}, error) {
			ownCompute.Store(true)
			return "fine", 0.95, "fine", nil
		})
		if err != nil || shared || v != "fine" || acc != 0.95 {
			t.Errorf("fallback Serve = %v %v shared=%v err=%v", v, acc, shared, err)
		}
	}()
	close(release)
	<-done
	if !ownCompute.Load() {
		t.Fatal("high-floor waiter accepted the coarse shared result")
	}
}

func TestDoWaiterHonorsContext(t *testing.T) {
	c := mustNew(t, Config{Capacity: 8})
	inFlight := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		c.Serve(context.Background(), 5, 0, nil, func() (interface{}, float64, interface{}, error) {
			close(inFlight)
			<-release
			return nil, 0, nil, nil
		})
	}()
	<-inFlight
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := c.Serve(ctx, 5, 0, nil, func() (interface{}, float64, interface{}, error) {
		t.Error("cancelled waiter computed")
		return nil, 0, nil, nil
	}); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentEvictionVsHit(t *testing.T) {
	// Hammer the cache with hits on hot keys while stores churn it past
	// its capacity, under -race. The
	// invariant: hot keys either hit with their stored value or miss
	// cleanly — never a foreign value, never a corrupt LRU list.
	c := mustNew(t, Config{Capacity: 8})
	hot := []uint64{1, 2, 3}
	for _, k := range hot {
		c.Store(k, nil, k, 1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, k := range hot {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, _, ok := c.Get(k, 0); ok && v != k {
					t.Errorf("key %d returned foreign value %v", k, v)
					return
				}
				c.Store(k, nil, k, 1) // re-insert after any eviction
			}
		}()
	}
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(100 + w*1000 + i%64)
				c.Store(k, nil, k, 0.7)
				c.Get(k, 0)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("capacity bound violated: len=%d", c.Len())
	}
}

func TestRefreshUpgradesEntries(t *testing.T) {
	c := mustNew(t, Config{Capacity: 8, RefreshBelow: 1, RefreshInterval: time.Millisecond})
	var refreshed atomic.Int64
	c.SetRefresh(func(key uint64, payload interface{}) (interface{}, float64, bool) {
		refreshed.Add(1)
		return fmt.Sprintf("exact-%v", payload), 1, true
	}, nil)
	c.Store(11, "req", "coarse", 0.7)
	if v, _, ok := c.Get(11, 0); !ok || v != "coarse" {
		t.Fatalf("initial hit = %v %v", v, ok)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if v, acc, ok := c.Get(11, 0); ok && acc == 1 {
			if v != "exact-req" {
				t.Fatalf("refreshed value = %v", v)
			}
			if st := c.Stats(); st.Refreshes < 1 {
				t.Fatalf("stats = %+v", st)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("entry never refreshed (refreshed=%d)", refreshed.Load())
}

func TestRefreshGateDefers(t *testing.T) {
	c := mustNew(t, Config{Capacity: 8, RefreshBelow: 1, RefreshInterval: time.Millisecond})
	var open atomic.Bool
	var refreshed atomic.Int64
	c.SetRefresh(func(uint64, interface{}) (interface{}, float64, bool) {
		refreshed.Add(1)
		return "exact", 1, true
	}, func() bool { return open.Load() })
	c.Store(3, "req", "coarse", 0.5)
	c.Get(3, 0)
	time.Sleep(30 * time.Millisecond)
	if refreshed.Load() != 0 {
		t.Fatal("refresh ran while the gate was closed")
	}
	open.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && refreshed.Load() == 0 {
		c.Get(3, 0) // re-enqueue in case the deferred key was dropped
		time.Sleep(time.Millisecond)
	}
	if refreshed.Load() == 0 {
		t.Fatal("refresh never ran after the gate opened")
	}
}

func TestHitPathZeroAlloc(t *testing.T) {
	c := mustNew(t, Config{Capacity: 64})
	c.Store(17, nil, "value", 0.9)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := c.Get(17, 0.5); !ok {
			t.Fatal("hit path missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f allocs/op, want 0", allocs)
	}
	// The miss path is alloc-free too (it is the overload fast-exit).
	allocs = testing.AllocsPerRun(1000, func() {
		c.Get(99, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("miss path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestUpgradeIfPresentRefreshesResidentKeys(t *testing.T) {
	c := mustNew(t, Config{Capacity: 4})
	c.Store(1, nil, "coarse", 0.8)

	// Resident key at the current epoch: the exact replay upgrades it.
	if !c.UpgradeIfPresent(1, nil, "exact", 1, c.Epoch()) {
		t.Fatal("resident key not upgraded")
	}
	if v, acc, ok := c.Get(1, 1); !ok || v != "exact" || acc != 1 {
		t.Fatalf("upgraded entry = %v %v %v, want exact at 1.0", v, acc, ok)
	}

	// Absent key: the upgrade must not insert — auditing a request nobody
	// cached should never pollute the LRU.
	if c.UpgradeIfPresent(99, nil, "exact", 1, c.Epoch()) {
		t.Fatal("upgrade inserted an absent key")
	}
	if _, _, ok := c.Get(99, 0); ok {
		t.Fatal("absent key became resident")
	}

	// Entry re-stored under a newer epoch: an upgrade computed from older
	// data must lose.
	old := c.Epoch()
	c.BumpEpoch()
	c.Store(1, nil, "fresh", 0.9)
	if c.UpgradeIfPresent(1, nil, "stale-exact", 1, old) {
		t.Fatal("stale upgrade overwrote a newer-epoch entry")
	}
	if v, _, ok := c.Get(1, 0); !ok || v != "fresh" {
		t.Fatalf("newer entry lost: %v %v", v, ok)
	}

	// Accuracy is clamped into [0, 1] like StoreAt.
	if !c.UpgradeIfPresent(1, nil, "clamped", 1.7, c.Epoch()) {
		t.Fatal("upgrade at current epoch refused")
	}
	if _, acc, ok := c.Get(1, 1); !ok || acc != 1 {
		t.Fatalf("accuracy not clamped: %v %v", acc, ok)
	}

	st := c.Stats()
	if st.Refreshes != 2 {
		t.Fatalf("stats = %+v, want 2 refreshes", st)
	}
}
