package rescache

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRewarmHotRecomputesStaleEntries: after an epoch bump the hot
// entries are stale; RewarmHot must recompute them through the refresh
// function and leave them serving at the new epoch.
func TestRewarmHotRecomputesStaleEntries(t *testing.T) {
	c := mustNew(t, Config{Capacity: 16, RefreshInterval: time.Hour})
	c.SetRefresh(func(key uint64, payload interface{}) (interface{}, float64, bool) {
		return fmt.Sprintf("fresh-%v", payload), 1, true
	}, nil)
	for k := uint64(1); k <= 4; k++ {
		c.Store(k, fmt.Sprintf("req%d", k), "old", 0.9)
	}
	// Key 9 has no payload: not re-warmable, must be skipped.
	c.Store(9, nil, "old", 0.9)

	c.BumpEpoch()
	if n := c.RewarmHot(8); n != 4 {
		t.Fatalf("RewarmHot re-warmed %d entries, want 4", n)
	}
	for k := uint64(1); k <= 4; k++ {
		v, acc, ok := c.Get(k, 0)
		if !ok || acc != 1 || v != fmt.Sprintf("fresh-req%d", k) {
			t.Fatalf("key %d after rewarm = %v %v %v", k, v, acc, ok)
		}
	}
	if _, _, ok := c.Get(9, 0); ok {
		t.Fatal("payload-free entry served after the bump")
	}
	if st := c.Stats(); st.Rewarms != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRewarmHotBounded: max bounds the recomputations, hottest first.
func TestRewarmHotBounded(t *testing.T) {
	c := mustNew(t, Config{Capacity: 16, RefreshInterval: time.Hour})
	var calls atomic.Int64
	c.SetRefresh(func(key uint64, payload interface{}) (interface{}, float64, bool) {
		calls.Add(1)
		return "fresh", 1, true
	}, nil)
	for k := uint64(1); k <= 6; k++ {
		c.Store(k, "req", "old", 0.9)
	}
	c.Get(2, 0) // make key 2 the hottest
	c.BumpEpoch()
	if n := c.RewarmHot(2); n != 2 || calls.Load() != 2 {
		t.Fatalf("RewarmHot = %d (calls %d), want 2", n, calls.Load())
	}
	// The hottest key was re-warmed; the coldest was not.
	if _, _, ok := c.Get(2, 0); !ok {
		t.Fatal("hottest key not re-warmed")
	}
	if _, _, ok := c.Get(1, 0); ok {
		t.Fatal("coldest key re-warmed despite the bound")
	}
}

// TestRewarmHotTakesTheHottest: with the default Config, RewarmHot
// recomputes exactly the most recently touched entries, hottest first,
// not the first entries it happens to scan.
func TestRewarmHotTakesTheHottest(t *testing.T) {
	c := mustNew(t, Config{RefreshInterval: time.Hour})
	var got []uint64
	c.SetRefresh(func(key uint64, payload interface{}) (interface{}, float64, bool) {
		got = append(got, key)
		return "fresh", 1, true
	}, nil)
	for k := uint64(0); k < 32; k++ {
		c.Store(k, "req", "old", 1) // exact: hits queue no background refresh
	}
	for k := uint64(24); k < 32; k++ {
		c.Get(k, 0)
	}
	c.BumpEpoch()
	if n := c.RewarmHot(8); n != 8 {
		t.Fatalf("RewarmHot = %d, want 8", n)
	}
	want := []uint64{31, 30, 29, 28, 27, 26, 25, 24}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("re-warmed %v, want %v", got, want)
	}
}

// TestRewarmEpochCaptureRegression is the mid-flight-swap regression
// test: a BumpEpoch that lands while a re-warm recomputation is running
// must leave the entry born stale — stamped with the epoch captured at
// compute start — so the pre-swap answer is never served as current.
func TestRewarmEpochCaptureRegression(t *testing.T) {
	c := mustNew(t, Config{Capacity: 8, RefreshInterval: time.Hour})
	inCompute := make(chan struct{})
	release := make(chan struct{})
	c.SetRefresh(func(key uint64, payload interface{}) (interface{}, float64, bool) {
		close(inCompute)
		<-release // the epoch bump lands here, mid-recompute
		return "computed-from-old-data", 1, true
	}, nil)
	c.Store(5, "req", "old", 0.9)
	c.BumpEpoch() // stale the entry; the rewarm below recomputes it

	done := make(chan int)
	go func() { done <- c.RewarmHot(1) }()
	<-inCompute
	c.BumpEpoch() // the data changed again while the recompute ran
	close(release)
	if n := <-done; n != 1 {
		t.Fatalf("RewarmHot = %d, want 1", n)
	}
	// The entry exists but is born stale: a lookup must miss instead of
	// serving the answer computed from pre-swap data.
	if v, _, ok := c.Get(5, 0); ok {
		t.Fatalf("born-stale rewarm served as current: %v", v)
	}
	if st := c.Stats(); st.Stale == 0 {
		t.Fatalf("stale discard not counted: %+v", st)
	}
}

// TestRefreshEpochCaptureRegression pins the same property on the
// background refresh worker: an epoch bump mid-recompute must leave the
// upgraded entry born stale.
func TestRefreshEpochCaptureRegression(t *testing.T) {
	c := mustNew(t, Config{Capacity: 8, RefreshBelow: 1, RefreshInterval: time.Millisecond})
	inCompute := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	c.SetRefresh(func(key uint64, payload interface{}) (interface{}, float64, bool) {
		if calls.Add(1) == 1 {
			close(inCompute)
			<-release
		}
		return "upgraded", 1, true
	}, nil)
	c.Store(7, "req", "coarse", 0.5)
	c.Get(7, 0) // enqueue the refresh
	<-inCompute
	c.BumpEpoch()
	close(release)

	// The refresh stores at the pre-bump epoch: the next lookup must
	// treat it as stale, not serve the pre-update answer at accuracy 1.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Refreshes >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if c.Stats().Refreshes < 1 {
		t.Fatal("refresh never completed")
	}
	if v, _, ok := c.Get(7, 0); ok {
		t.Fatalf("born-stale refresh served as current: %v", v)
	}
}

// TestRewarmHotGateYields: a closed gate stops the re-warm pass early
// (load first, freshness second).
func TestRewarmHotGateYields(t *testing.T) {
	c := mustNew(t, Config{Capacity: 8, RefreshInterval: time.Hour})
	var open atomic.Bool
	c.SetRefresh(func(uint64, interface{}) (interface{}, float64, bool) {
		return "fresh", 1, true
	}, func() bool { return open.Load() })
	c.Store(1, "req", "old", 0.9)
	c.BumpEpoch()
	if n := c.RewarmHot(4); n != 0 {
		t.Fatalf("RewarmHot ran %d recomputes through a closed gate", n)
	}
	open.Store(true)
	if n := c.RewarmHot(4); n != 1 {
		t.Fatalf("RewarmHot = %d after the gate opened, want 1", n)
	}
}
