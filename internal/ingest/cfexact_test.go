package ingest

import (
	"math"
	"testing"

	"accuracytrader/internal/cf"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/svd"
	"accuracytrader/internal/synopsis"
)

// naiveCFExact is the naive composition the live exact path is held to:
// per user, cf.Weight (the two-vector definition) and a binary search
// per target, first occurrence only — no table, no binding.
func naiveCFExact(m *cf.Matrix, req cf.Request) cf.Result {
	res := cf.NewResult(len(req.Targets))
	for u := 0; u < m.NumUsers(); u++ {
		rs, mean := m.Ratings(u), m.Mean(u)
		w := cf.Weight(req.Ratings, rs)
		if w == 0 {
			continue
		}
		for t, item := range req.Targets {
			lo, hi := 0, len(rs)
			for lo < hi {
				if mid := (lo + hi) / 2; rs[mid].Item < item {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(rs) && rs[lo].Item == item {
				res.Num[t] += w * (rs[lo].Score - mean)
				res.Den[t] += math.Abs(w)
			}
		}
	}
	return res
}

// liveCFWithDelta builds a live CF shard with a compacted base of 60
// users plus a published delta of 25; every third user holds duplicate
// items. It returns the shard and every user in append order.
func liveCFWithDelta(tb testing.TB, nItems int) (*CFLive, [][]cf.Rating) {
	tb.Helper()
	rng := stats.NewRNG(0xcf24)
	l := NewCFLive(nItems, synopsis.Config{SVD: svd.Config{Dims: 3, Epochs: 10, Seed: 11}, CompressionRatio: 10})
	var users [][]cf.Rating
	add := func(n int) {
		for i := 0; i < n; i++ {
			rs := make([]cf.Rating, 6+rng.Intn(10))
			perm := rng.Perm(nItems)
			for k := range rs {
				rs[k] = cf.Rating{Item: int32(perm[k]), Score: 1 + float64(rng.Intn(9))/2}
			}
			if len(users)%3 == 0 {
				rs = append(rs, cf.Rating{Item: rs[0].Item, Score: 2.5}, cf.Rating{Item: rs[1].Item, Score: 4})
			}
			if _, err := l.Append(rs); err != nil {
				tb.Fatal(err)
			}
			users = append(users, rs)
		}
	}
	add(60)
	if _, _, _, err := l.Compact(); err != nil {
		tb.Fatal(err)
	}
	add(25)
	l.PublishDelta()
	return l, users
}

// TestCFSnapshotExactMatchesNaiveComposition checks the one-binding
// base scan + delta fold against the naive composition over a matrix of
// the same users, bit for bit, for requests with duplicate active items
// and duplicate or out-of-range targets.
func TestCFSnapshotExactMatchesNaiveComposition(t *testing.T) {
	const nItems = 40
	l, users := liveCFWithDelta(t, nItems)
	snap, _ := l.Snapshot()
	if snap.Base() == nil || snap.DeltaUsers() != 25 {
		t.Fatalf("snapshot has base %v and %d delta users, want a base and 25", snap.Base() != nil, snap.DeltaUsers())
	}
	m := cf.NewMatrix(nItems)
	for _, rs := range users {
		m.AddUser(rs)
	}
	rng := stats.NewRNG(7)
	var res cf.Result
	for trial := 0; trial < 40; trial++ {
		active := make([]cf.Rating, rng.Intn(16))
		for i := range active {
			active[i] = cf.Rating{Item: int32(rng.Intn(nItems+4) - 2), Score: 1 + float64(rng.Intn(9))/2}
		}
		targets := []int32{int32(rng.Intn(nItems)), int32(rng.Intn(nItems)), -1, nItems, 0}
		targets[4] = targets[0]
		req := cf.NewRequest(active, targets)
		res = snap.Exact(res, req)
		if err := sameCFResult(res, naiveCFExact(m, req)); err != nil {
			t.Fatalf("trial %d: exact vs naive composition: %v", trial, err)
		}
		// The public two-step composition binds twice and must agree.
		two := snap.FoldDelta(cf.ExactResult(snap.Base(), req), req)
		if err := sameCFResult(res, two); err != nil {
			t.Fatalf("trial %d: exact vs ExactResult + FoldDelta: %v", trial, err)
		}
	}
}

// TestCFSnapshotExactZeroAlloc asserts the live CF exact path — and the
// delta fold alone — allocate nothing once the scorer pool is warm.
func TestCFSnapshotExactZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse")
	}
	l, users := liveCFWithDelta(t, 40)
	snap, _ := l.Snapshot()
	req := cf.NewRequest(users[3], []int32{1, 7, 7, 39, -1})
	res := cf.NewResult(len(req.Targets))
	// AllocsPerRun's warm-up invocation primes the scorer pool.
	if n := testing.AllocsPerRun(100, func() { res = snap.FoldDelta(res, req) }); n != 0 {
		t.Errorf("FoldDelta allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { res = snap.Exact(res, req) }); n != 0 {
		t.Errorf("Exact allocates %v per op, want 0", n)
	}
}
