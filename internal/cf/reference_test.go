package cf

// Reference (naive) implementations of the optimized CF kernels, retained
// as test-only helpers: the property tests assert the merge-join Weight
// and the one-pass scorer every scan site runs (scorer.go) are
// result-identical to the simple semantics on randomized inputs.

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"accuracytrader/internal/core"
	"accuracytrader/internal/stats"
)

// naiveWeight is the pre-optimization Weight: materialize the co-rated
// pairs, then pearson.
func naiveWeight(a, b []Rating) float64 {
	var xs, ys []float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Item < b[j].Item:
			i++
		case a[i].Item > b[j].Item:
			j++
		default:
			xs = append(xs, a[i].Score)
			ys = append(ys, b[j].Score)
			i++
			j++
		}
	}
	return pearson(xs, ys)
}

// pearson returns the Pearson correlation coefficient of the co-rated
// pairs (x[i], y[i]). The slices must have equal length; fewer than two
// pairs, or zero variance on either side, yields 0.
func pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("cf: pearson length mismatch")
	}
	n := len(x)
	if n < 2 {
		return 0
	}
	mx, my := mean(x), mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp rounding noise so callers can rely on [-1,1].
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// mean returns the arithmetic mean of v (0 for empty input).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPearsonKnown(t *testing.T) {
	// Perfect positive and negative correlation.
	if !almostEq(pearson([]float64{1, 2, 3}, []float64{2, 4, 6}), 1) {
		t.Fatal("perfect positive")
	}
	if !almostEq(pearson([]float64{1, 2, 3}, []float64{6, 4, 2}), -1) {
		t.Fatal("perfect negative")
	}
	if pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("zero variance must give 0")
	}
	if pearson([]float64{1}, []float64{2}) != 0 {
		t.Fatal("single pair must give 0")
	}
}

func TestPearsonRangeProperty(t *testing.T) {
	rng := stats.NewRNG(99)
	f := func(seed uint32, n uint8) bool {
		r := rng.Split(uint64(seed))
		m := int(n%40) + 2
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := 0; i < m; i++ {
			xs[i] = r.Norm(0, 100)
			ys[i] = r.Norm(0, 100)
		}
		p := pearson(xs, ys)
		return p >= -1 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonSymmetry(t *testing.T) {
	x := []float64{1, 4, 2, 8, 5, 7}
	y := []float64{2, 3, 1, 9, 4, 6}
	if !almostEq(pearson(x, y), pearson(y, x)) {
		t.Fatal("Pearson not symmetric")
	}
}

func TestPearsonShiftScaleInvariance(t *testing.T) {
	x := []float64{1, 4, 2, 8, 5, 7}
	y := []float64{2, 3, 1, 9, 4, 6}
	x2 := make([]float64, len(x))
	for i, v := range x {
		x2[i] = 3*v + 10
	}
	if !almostEq(pearson(x, y), pearson(x2, y)) {
		t.Fatal("Pearson not invariant to positive affine transform")
	}
}

// naiveContribute is the pre-optimization contribute: a binary search per
// (neighbour × target).
func naiveContribute(res Result, targets []int32, w float64, rs []Rating, mean float64, sign float64) {
	if w == 0 {
		return
	}
	aw := math.Abs(w)
	for t, item := range targets {
		lo, hi := 0, len(rs)
		for lo < hi {
			mid := (lo + hi) / 2
			if rs[mid].Item < item {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(rs) && rs[lo].Item == item {
			res.Num[t] += sign * w * (rs[lo].Score - mean)
			res.Den[t] += sign * aw
		}
	}
}

// naiveExactResult composes naiveWeight + naiveContribute over all users.
func naiveExactResult(c *Component, req Request) Result {
	res := NewResult(len(req.Targets))
	for u := 0; u < c.M.NumUsers(); u++ {
		rs := c.M.Ratings(u)
		w := naiveWeight(req.Ratings, rs)
		naiveContribute(res, req.Targets, w, rs, c.M.Mean(u), +1)
	}
	return res
}

// randomRatings emits a sorted, item-unique rating vector.
func randomRatings(rng *stats.RNG, nItems int) []Rating {
	var rs []Rating
	for i := 0; i < nItems; i++ {
		if rng.Float64() < 0.3 {
			rs = append(rs, Rating{Item: int32(i), Score: 1 + 4*rng.Float64()})
		}
	}
	return rs
}

// TestWeightMatchesNaiveReference checks the zero-alloc merge-join Weight
// is bit-identical to the materializing reference on randomized vectors.
func TestWeightMatchesNaiveReference(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := stats.NewRNG(seed)
		for trial := 0; trial < 300; trial++ {
			a := randomRatings(rng, 5+rng.Intn(60))
			b := randomRatings(rng, 5+rng.Intn(60))
			got, want := Weight(a, b), naiveWeight(a, b)
			if got != want {
				t.Fatalf("seed %d trial %d: Weight %v, naive %v", seed, trial, got, want)
			}
		}
	}
}

// TestContributeMatchesNaiveReference checks the scorer's known-weight
// fold accumulates bit-identically to the binary-search reference, including
// duplicate target items.
func TestContributeMatchesNaiveReference(t *testing.T) {
	rng := stats.NewRNG(2)
	const nItems = 40
	var sc scorer
	for trial := 0; trial < 300; trial++ {
		nT := 1 + rng.Intn(8)
		targets := make([]int32, nT)
		for i := range targets {
			targets[i] = int32(rng.Intn(nItems))
		}
		// Every other trial: force duplicate targets.
		if trial%2 == 0 && nT > 1 {
			targets[nT-1] = targets[0]
		}
		sc.bind(nItems, nil, targets)
		got := NewResult(nT)
		want := NewResult(nT)
		for n := 0; n < 5; n++ {
			rs := randomRatings(rng, nItems)
			w := rng.Norm(0, 0.5)
			mean := 1 + 4*rng.Float64()
			sign := 1.0
			if rng.Float64() < 0.3 {
				sign = -1
			}
			sc.foldAt(got, w, rs, mean, sign)
			naiveContribute(want, targets, w, rs, mean, sign)
		}
		for i := range want.Num {
			if got.Num[i] != want.Num[i] || got.Den[i] != want.Den[i] {
				t.Fatalf("trial %d target %d: got (%v,%v) want (%v,%v)",
					trial, i, got.Num[i], got.Den[i], want.Num[i], want.Den[i])
			}
		}
	}
}

// TestContributeDuplicateNeighbourItems checks rating vectors holding
// duplicate items (accepted by SetUser) contribute once per (neighbour,
// target) from the first occurrence, matching the binary-search kernel.
func TestContributeDuplicateNeighbourItems(t *testing.T) {
	targets := []int32{3, 8}
	rs := []Rating{{Item: 3, Score: 4}, {Item: 3, Score: 1}, {Item: 8, Score: 2}}
	var sc scorer
	sc.bind(10, nil, targets)
	got := NewResult(2)
	want := NewResult(2)
	sc.foldAt(got, 0.7, rs, 2.5, +1)
	naiveContribute(want, targets, 0.7, rs, 2.5, +1)
	for i := range want.Num {
		if got.Num[i] != want.Num[i] || got.Den[i] != want.Den[i] {
			t.Fatalf("target %d: got (%v,%v) want (%v,%v)", i, got.Num[i], got.Den[i], want.Num[i], want.Den[i])
		}
	}
}

// TestEngineMatchesNaivePipeline runs the full Algorithm 1 pipeline on
// randomized components, over one item-bitmap word and over three, and
// checks correlations, accumulators and predictions against the naive
// kernels with == at every processing depth.
func TestEngineMatchesNaivePipeline(t *testing.T) {
	for _, nItems := range []int{30, 150} {
		for seed := uint64(10); seed <= 12; seed++ {
			rng := stats.NewRNG(seed)
			m, _ := testMatrix(rng, 150, nItems, 4, 0.4)
			c, err := BuildComponent(m, synCfg())
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				ctx := fmt.Sprintf("%d items seed %d trial %d", nItems, seed, trial)
				known := randomRatings(rng, nItems)
				nT := 1 + rng.Intn(5)
				targets := make([]int32, nT)
				for i := range targets {
					targets[i] = int32(rng.Intn(nItems))
				}
				req := NewRequest(known, targets)

				e := GetEngine(c, req)
				naiveRes := NewResult(nT)
				corr := e.ProcessSynopsis()
				for g, ag := range c.Aggs {
					w := naiveWeight(req.Ratings, ag.Ratings)
					if corr[g] != math.Abs(w) {
						t.Fatalf("%s: corr[%d] %v vs naive %v", ctx, g, corr[g], math.Abs(w))
					}
					naiveContribute(naiveRes, req.Targets, w, ag.Ratings, ag.Mean, +1)
				}
				checkResultsClose(t, e.Result(), naiveRes, 0, ctx+" synopsis")
				for g := range c.Aggs {
					e.ProcessSet(g)
					ag := c.Aggs[g]
					naiveContribute(naiveRes, req.Targets, e.aggWeights[g], ag.Ratings, ag.Mean, -1)
					for _, u := range ag.Members {
						rs := c.M.Ratings(u)
						naiveContribute(naiveRes, req.Targets, naiveWeight(req.Ratings, rs), rs, c.M.Mean(u), +1)
					}
				}
				checkResultsClose(t, e.Result(), naiveRes, 0, ctx+" full")

				am := req.ActiveMean()
				got := e.Result().Predictions(am)
				want := naiveRes.Predictions(am)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: prediction %d = %v, naive %v", ctx, i, got[i], want[i])
					}
				}
				e.Release()
			}
		}
	}
}

func checkResultsClose(t *testing.T, got, want Result, tol float64, ctx string) {
	t.Helper()
	for i := range want.Num {
		if math.Abs(got.Num[i]-want.Num[i]) > tol || math.Abs(got.Den[i]-want.Den[i]) > tol {
			t.Fatalf("%s: target %d got (%v,%v) want (%v,%v)",
				ctx, i, got.Num[i], got.Den[i], want.Num[i], want.Den[i])
		}
	}
}

// TestExactResultMatchesNaive checks ExactResult (and its buffer-reusing
// variant) against the naive composition, over one item-bitmap word and
// over four.
func TestExactResultMatchesNaive(t *testing.T) {
	for _, nItems := range []int{35, 200} {
		rng := stats.NewRNG(21)
		m, _ := testMatrix(rng, 200, nItems, 4, 0.4)
		c, err := BuildComponent(m, synCfg())
		if err != nil {
			t.Fatal(err)
		}
		var reused Result
		for trial := 0; trial < 20; trial++ {
			known := randomRatings(rng, nItems)
			targets := []int32{int32(rng.Intn(nItems)), int32(rng.Intn(nItems)), int32(rng.Intn(nItems))}
			req := NewRequest(known, targets)
			want := naiveExactResult(c, req)
			got := ExactResult(c, req)
			checkResultsClose(t, got, want, 0, fmt.Sprintf("%d items trial %d fresh", nItems, trial))
			reused = ExactResultInto(reused, c, req)
			checkResultsClose(t, reused, want, 0, fmt.Sprintf("%d items trial %d reused", nItems, trial))
		}
	}
}

// TestEngineResetReuseMatchesFresh checks a pooled/reset CF engine
// produces results identical to a fresh engine across varying requests.
func TestEngineResetReuseMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(31)
	m, _ := testMatrix(rng, 150, 30, 4, 0.5)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	reused := GetEngine(c, NewRequest(nil, nil))
	defer reused.Release()
	for trial := 0; trial < 15; trial++ {
		req := NewRequest(randomRatings(rng, 30), []int32{int32(rng.Intn(30)), int32(rng.Intn(30))})
		fresh := NewEngine(c, req)
		reused.Reset(c, req)
		fresh.ProcessSynopsis()
		reused.ProcessSynopsis()
		for g := 0; g < len(c.Aggs); g += 2 {
			fresh.ProcessSet(g)
			reused.ProcessSet(g)
		}
		checkResultsClose(t, reused.Result(), fresh.Result(), 0, fmt.Sprintf("trial %d", trial))
	}
}

// TestOutOfRangeTargetsPredictActiveMean is the regression test for the
// target-lookup guard: a target item outside the component's item space
// must not panic (the replaced binary-search kernel degraded gracefully)
// and must fall back to the active mean.
func TestOutOfRangeTargetsPredictActiveMean(t *testing.T) {
	rng := stats.NewRNG(61)
	m, _ := testMatrix(rng, 100, 20, 4, 0.5)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(m.Ratings(0)[:3], []int32{5, int32(m.NumItems()), -1, 7})
	e := NewEngine(c, req)
	e.ProcessSynopsis()
	for g := range c.Aggs {
		e.ProcessSet(g)
	}
	am := req.ActiveMean()
	preds := e.Result().Predictions(am)
	if preds[1] != am || preds[2] != am {
		t.Fatalf("out-of-range targets predicted (%v, %v), want active mean %v", preds[1], preds[2], am)
	}
	if math.IsNaN(preds[0]) || math.IsNaN(preds[3]) {
		t.Fatal("in-range targets broken by out-of-range neighbours")
	}
}

// TestPredictionsIntoMatchesPredictions checks the buffer-reusing
// prediction path.
func TestPredictionsIntoMatchesPredictions(t *testing.T) {
	r := Result{Num: []float64{1, 0, -2}, Den: []float64{2, 0, 4}}
	want := r.Predictions(3)
	buf := make([]float64, 0, 8)
	got := r.PredictionsInto(buf, 3)
	if len(got) != len(want) {
		t.Fatalf("lengths differ")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pred %d: %v vs %v", i, got[i], want[i])
		}
	}
	if cap(got) != cap(buf) {
		t.Fatalf("buffer not reused")
	}
}

// lockstepEngine drives an Engine and, beside it, the same Algorithm 1
// run composed from naiveWeight + naiveContribute, comparing the two
// with == after every step core.Run takes.
type lockstepEngine struct {
	t       *testing.T
	e       *Engine
	want    Result
	weights []float64 // naive aggregated-user weights, for the retraction
}

func (l *lockstepEngine) ProcessSynopsis() []float64 {
	corr := l.e.ProcessSynopsis()
	c, req := l.e.Comp, l.e.Req
	l.weights = make([]float64, len(c.Aggs))
	for g, ag := range c.Aggs {
		l.weights[g] = naiveFold(l.want, req, ag.Ratings, ag.Mean)
		if corr[g] != math.Abs(l.weights[g]) {
			l.t.Fatalf("corr[%d] = %v, naive %v", g, corr[g], math.Abs(l.weights[g]))
		}
	}
	sameResult(l.t, l.e.Result(), l.want, "synopsis")
	return corr
}

func (l *lockstepEngine) ProcessSet(g int) {
	l.e.ProcessSet(g)
	c, req := l.e.Comp, l.e.Req
	ag := c.Aggs[g]
	naiveContribute(l.want, req.Targets, l.weights[g], ag.Ratings, ag.Mean, -1)
	for _, u := range ag.Members {
		naiveFold(l.want, req, c.M.Ratings(u), c.M.Mean(u))
	}
	sameResult(l.t, l.e.Result(), l.want, fmt.Sprintf("set %d", g))
}

// TestScanSitesMatchNaiveComposition checks ExactResultInto and a full
// Algorithm 1 run — synopsis, then every set, retractions included —
// bit-identical to the naive composition, on shards over one item-bitmap
// word and over three whose users in part hold duplicate items (the
// stream fallback beside the bitmap path) and requests whose active
// ratings hold duplicates and whose targets repeat or fall outside the
// item space.
func TestScanSitesMatchNaiveComposition(t *testing.T) {
	for _, nItems := range []int{30, 150} {
		for seed := uint64(40); seed <= 42; seed++ {
			rng := stats.NewRNG(seed)
			m, _ := testMatrix(rng, 120, nItems, 4, 0.4)
			for u := 0; u < m.NumUsers(); u += 3 {
				rs := append([]Rating(nil), m.Ratings(u)...)
				m.SetUser(u, append(rs, hostileRatings(rng, 1+rng.Intn(3), 0, nItems)...))
			}
			c, err := BuildComponent(m, synCfg())
			if err != nil {
				t.Fatal(err)
			}
			var reused Result
			for trial := 0; trial < 10; trial++ {
				ctx := fmt.Sprintf("%d items seed %d trial %d", nItems, seed, trial)
				active := append(randomRatings(rng, nItems), hostileRatings(rng, rng.Intn(4), -2, nItems+2)...)
				targets := []int32{int32(rng.Intn(nItems)), int32(rng.Intn(nItems)), -1, int32(nItems), int32(rng.Intn(nItems))}
				targets[4] = targets[0]
				req := NewRequest(active, targets)

				reused = ExactResultInto(reused, c, req)
				sameResult(t, reused, naiveExactResult(c, req), ctx+" exact")

				e := GetEngine(c, req)
				tr := core.Run(&lockstepEngine{t: t, e: e, want: NewResult(len(targets))}, func(int) bool { return true }, 0)
				if tr.SetsProcessed != len(c.Aggs) {
					t.Fatalf("%s: %d of %d sets processed", ctx, tr.SetsProcessed, len(c.Aggs))
				}
				e.Release()
			}
		}
	}
}
