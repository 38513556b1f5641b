package cf

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"accuracytrader/internal/stats"
)

// naiveFold is the reference for scorer.fold: the retained naive weight,
// then the retained naive contribution at that weight.
func naiveFold(res Result, req Request, rs []Rating, mean float64) float64 {
	w := naiveWeight(req.Ratings, rs)
	naiveContribute(res, req.Targets, w, rs, mean, +1)
	return w
}

func sameResult(t *testing.T, got, want Result, ctx string) {
	t.Helper()
	if !slices.Equal(got.Num, want.Num) || !slices.Equal(got.Den, want.Den) {
		t.Fatalf("%s: got (%v,%v) want (%v,%v)", ctx, got.Num, got.Den, want.Num, want.Den)
	}
}

// checkScorer binds sc to (active, targets) as a request would, stores
// the neighbours as the users of an nItems matrix — sorted, averaged and
// bitmapped by SetUser — and folds every one both ways the scorer can:
// by the stream (fold) and as a matrix user (foldUser: the bitmap path
// for a row without a repeated item, the stream for one with). Each fold
// is followed by a retraction and re-addition at its weight (foldAt).
// Both results are held to the naive kernels with == on every float.
func checkScorer(t *testing.T, sc *scorer, nItems int, active []Rating, targets []int32, neighbours [][]Rating, ctx string) {
	t.Helper()
	req := NewRequest(active, targets)
	m := NewMatrix(nItems)
	for _, rs := range neighbours {
		m.AddUser(rs)
	}
	sc.bind(nItems, req.Ratings, req.Targets)
	stream, user, want := NewResult(len(targets)), NewResult(len(targets)), NewResult(len(targets))
	for u := range neighbours {
		rs, mean := m.Ratings(u), m.Mean(u)
		nw := naiveFold(want, req, rs, mean)
		for _, path := range []struct {
			name string
			got  Result
			w    float64
		}{
			{"stream", stream, sc.fold(stream, rs, mean)},
			{"matrix user", user, sc.foldUser(user, m, u)},
		} {
			if path.w != nw {
				t.Fatalf("%s neighbour %d (%s, %d items): weight %v, naive %v", ctx, u, path.name, nItems, path.w, nw)
			}
			sameResult(t, path.got, want, fmt.Sprintf("%s neighbour %d (%s, %d items)", ctx, u, path.name, nItems))
		}
		for _, sign := range []float64{-1, +1} {
			sc.foldAt(stream, nw, rs, mean, sign)
			sc.foldAt(user, nw, rs, mean, sign)
			naiveContribute(want, req.Targets, nw, rs, mean, sign)
			sameResult(t, stream, want, ctx)
			sameResult(t, user, want, ctx)
		}
	}
}

// hostileRatings draws n ratings over a narrow item range, so duplicate
// items are common; lo < 0 or hi > nItems puts some out of range.
func hostileRatings(rng *stats.RNG, n, lo, hi int) []Rating {
	rs := make([]Rating, n)
	for i := range rs {
		rs[i] = Rating{Item: int32(lo + rng.Intn(hi-lo)), Score: 1 + float64(rng.Intn(9))/2}
	}
	return rs
}

// TestScorerMatchesNaiveKernels is the differential test of the one-pass
// kernel: unsorted inputs with duplicate items on both sides, active
// ratings and targets outside the item space, duplicate targets — one
// long-lived scorer re-bound across all trials, as a pooled one is.
func TestScorerMatchesNaiveKernels(t *testing.T) {
	rng := stats.NewRNG(24)
	const nItems = 24
	var sc scorer
	for trial := 0; trial < 500; trial++ {
		active := hostileRatings(rng, rng.Intn(14), -3, nItems+3)
		targets := make([]int32, rng.Intn(7))
		for i := range targets {
			targets[i] = int32(rng.Intn(nItems+6) - 3)
		}
		neighbours := make([][]Rating, 1+rng.Intn(4))
		for i := range neighbours {
			neighbours[i] = hostileRatings(rng, rng.Intn(20), 0, nItems)
		}
		checkScorer(t, &sc, nItems, active, targets, neighbours, fmt.Sprintf("trial %d", trial))
	}
}

// TestScorerEpochWraparound starts a scorer whose table holds a previous
// request's stamps just below the uint32 wrap: the bind that wraps must
// invalidate them, or the new epoch (1) would revive the entries the
// very first bind stamped.
func TestScorerEpochWraparound(t *testing.T) {
	const nItems = 8
	var sc scorer
	old := []Rating{{Item: 1, Score: 2}, {Item: 2, Score: 4}, {Item: 3, Score: 5}}
	sc.bind(nItems, old, []int32{1, 2}) // epoch 1: items 1..3 stamped
	sc.epoch = math.MaxUint32
	rs := []Rating{{Item: 1, Score: 1}, {Item: 2, Score: 3}, {Item: 3, Score: 2}, {Item: 5, Score: 4}, {Item: 6, Score: 1}}
	checkScorer(t, &sc, nItems, []Rating{{Item: 5, Score: 3}, {Item: 6, Score: 5}}, []int32{6, 7}, [][]Rating{rs}, "wrapped")
	if sc.epoch != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", sc.epoch)
	}
	for item, e := range sc.tab {
		if (e.stamp == sc.epoch) != (item >= 5) {
			t.Fatalf("item %d: stamp %d at epoch %d", item, e.stamp, sc.epoch)
		}
	}
}

// fuzzItemSpaces are the item-space sizes FuzzScorerDifferential's first
// byte picks from: one word, exactly one and two words, one item past a
// word, and the benchmark's 200 items over four words.
var fuzzItemSpaces = []int{16, 64, 65, 130, 200}

// FuzzScorerDifferential decodes an item space, and arbitrary active,
// neighbour and target vectors over it, from bytes — sorted as NewRequest
// / SetUser would — and holds the scorer to naiveWeight + naiveContribute
// with == on every float. The neighbour is folded by the stream and as a
// matrix user (checkScorer), and its last byte decides whether its row
// keeps repeated items (the stream fallback) or is deduplicated (the
// bitmap path).
func FuzzScorerDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 4, 2, 5, 8, 6, 2, 7, 9, 5, 1, 6, 3, 7, 4, 9, 2, 5, 7})
	f.Add([]byte{0, 4, 4, 3, 5, 2, 5, 8, 5, 4, 0, 9, 5, 1, 5, 7, 5, 3, 9, 6, 5, 5, 0, 19})         // duplicates both sides
	f.Add([]byte{0, 3, 2, 4, 0, 1, 19, 9, 18, 5, 6, 2, 7, 8, 0, 1, 19, 18})                        // out-of-range active and targets
	f.Add([]byte{0, 1, 6, 1, 7, 3, 2, 1, 3, 5, 4, 2, 5, 9, 6, 4, 7, 8, 7})                         // one active rating: weight 0
	f.Add([]byte{0, 6, 6, 2, 9, 1, 8, 3, 7, 5, 6, 7, 5, 9, 4, 2, 4, 1, 5, 3, 6, 5, 7, 7, 8, 9, 8}) // unsorted
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nItems := fuzzItemSpaces[next()%len(fuzzItemSpaces)]
		// Items decode into [-2, nItems+2): two below and two above the
		// item space.
		ratings := func(n int, inRange bool) []Rating {
			rs := make([]Rating, n)
			for i := range rs {
				item := next()%(nItems+4) - 2
				if inRange {
					item = next() % nItems
				}
				rs[i] = Rating{Item: int32(item), Score: 1 + float64(next()%9)/2}
			}
			return rs
		}
		nA, nB, nT := next()%12, next()%24, next()%6
		active := ratings(nA, false)
		rs := ratings(nB, true)
		targets := make([]int32, nT)
		for i := range targets {
			targets[i] = int32(next()%(nItems+4) - 2)
		}
		if next()%2 == 1 {
			sortRatings(rs)
			rs = slices.CompactFunc(rs, func(a, b Rating) bool { return a.Item == b.Item })
		}
		var sc scorer
		checkScorer(t, &sc, nItems, active, targets, [][]Rating{rs}, "fuzz")
	})
}

// TestKernelPathsDoNotAllocate pins the warm kernel paths at zero
// allocations: the bound tables and pair/hit buffers are sized at bind
// and reused through the engine pool.
func TestKernelPathsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse")
	}
	rng := stats.NewRNG(71)
	m, _ := testMatrix(rng, 150, 30, 4, 0.4)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(randomRatings(rng, 30), []int32{3, 9, 9, 21, -1})
	var res Result
	// AllocsPerRun's warm-up invocation primes the engine pool.
	if n := testing.AllocsPerRun(100, func() { res = ExactResultInto(res, c, req) }); n != 0 {
		t.Errorf("warm ExactResultInto allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		e := GetEngine(c, req)
		e.ProcessSynopsis()
		e.ProcessSet(0)
		e.Release()
	}); n != 0 {
		t.Errorf("GetEngine + ProcessSynopsis + ProcessSet + Release allocates %v per op, want 0", n)
	}
}
