package cf

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"accuracytrader/internal/stats"
	"accuracytrader/internal/svd"
	"accuracytrader/internal/synopsis"
)

// testMatrix builds a clustered rating matrix: users in k taste clusters
// rate items near their cluster's preference profile on a 1..5 scale.
func testMatrix(rng *stats.RNG, nUsers, nItems, k int, density float64) (*Matrix, []int) {
	profiles := make([][]float64, k)
	for p := range profiles {
		prof := make([]float64, nItems)
		for i := range prof {
			prof[i] = 1 + 4*rng.Float64()
		}
		profiles[p] = prof
	}
	m := NewMatrix(nItems)
	clusters := make([]int, nUsers)
	for u := 0; u < nUsers; u++ {
		cl := u % k
		clusters[u] = cl
		var rs []Rating
		for i := 0; i < nItems; i++ {
			if rng.Float64() < density {
				s := profiles[cl][i] + rng.Norm(0, 0.3)
				if s < 1 {
					s = 1
				}
				if s > 5 {
					s = 5
				}
				rs = append(rs, Rating{Item: int32(i), Score: s})
			}
		}
		if len(rs) == 0 {
			rs = []Rating{{Item: 0, Score: profiles[cl][0]}}
		}
		m.AddUser(rs)
	}
	return m, clusters
}

func synCfg() synopsis.Config {
	return synopsis.Config{
		SVD:              svd.Config{Dims: 3, Epochs: 10, Seed: 11},
		CompressionRatio: 10,
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(10)
	u := m.AddUser([]Rating{{Item: 5, Score: 4}, {Item: 1, Score: 2}})
	if u != 0 || m.NumUsers() != 1 || m.NumItems() != 10 || m.NumRatings() != 2 {
		t.Fatal("shape wrong")
	}
	rs := m.Ratings(0)
	if rs[0].Item != 1 || rs[1].Item != 5 {
		t.Fatalf("ratings not sorted: %v", rs)
	}
	if m.Mean(0) != 3 {
		t.Fatalf("mean = %v", m.Mean(0))
	}
	if v, ok := m.Rating(0, 5); !ok || v != 4 {
		t.Fatalf("Rating = %v,%v", v, ok)
	}
	if _, ok := m.Rating(0, 7); ok {
		t.Fatal("unrated item should miss")
	}
	m.SetUser(0, []Rating{{Item: 2, Score: 5}})
	if m.NumRatings() != 1 || m.Mean(0) != 5 {
		t.Fatal("SetUser failed")
	}
}

// TestMatrixItemBitsTrackRows drives AddUser / SetUser over a three-word
// item space — every user's row grown, shrunk, emptied, given a repeated
// item and made duplicate-free again, then random steps — and after each
// step checks every user's item bitmap against a model of its rows: bit
// i set exactly when the row rates item i, the duplicate flag set
// exactly when it rates some item twice.
func TestMatrixItemBitsTrackRows(t *testing.T) {
	const nItems = 130
	rng := stats.NewRNG(81)
	m := NewMatrix(nItems)
	var rows [][]Rating // the model: each user's last ratings, as given
	set := func(u int, rs []Rating) {
		rows[u] = rs
		m.SetUser(u, rs)
	}
	check := func(step string) {
		t.Helper()
		for u, rs := range rows {
			count := make(map[int32]int)
			dup := false
			for _, r := range rs {
				count[r.Item]++
				dup = dup || count[r.Item] > 1
			}
			ub := m.itemBits(u)
			if len(ub) != 3 {
				t.Fatalf("%s: user %d has %d bitmap words, want 3", step, u, len(ub))
			}
			for item := 0; item < 3*64; item++ {
				if got := ub[item/64]>>(item%64)&1 == 1; got != (count[int32(item)] > 0) {
					t.Fatalf("%s: user %d item %d: bit %v, row rates it %d times", step, u, item, got, count[int32(item)])
				}
			}
			if m.dup[u] != dup {
				t.Fatalf("%s: user %d duplicate flag %v, want %v", step, u, m.dup[u], dup)
			}
		}
	}
	random := func() []Rating {
		density := rng.Float64() / 2
		var rs []Rating
		for i := 0; i < nItems; i++ {
			if rng.Float64() < density {
				rs = append(rs, Rating{Item: int32(i), Score: 1 + 4*rng.Float64()})
			}
		}
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		return rs
	}
	steps := []struct {
		name string
		edit func(rs []Rating) []Rating
	}{
		{"grow", func(rs []Rating) []Rating {
			return append(append([]Rating(nil), rs...), Rating{Item: 63, Score: 2}, Rating{Item: 64, Score: 3}, Rating{Item: 129, Score: 4})
		}},
		{"shrink", func(rs []Rating) []Rating { return append([]Rating(nil), rs[:len(rs)/2]...) }},
		{"empty", func([]Rating) []Rating { return nil }},
		{"repeat", func(rs []Rating) []Rating {
			rs = append(random(), Rating{Item: 127, Score: 1}, Rating{Item: 128, Score: 5})
			return append(rs, Rating{Item: 127, Score: 3})
		}},
		{"dedupe", func(rs []Rating) []Rating {
			rs = append([]Rating(nil), rs...)
			sortRatings(rs)
			return slices.CompactFunc(rs, func(a, b Rating) bool { return a.Item == b.Item })
		}},
	}
	for u := 0; u < 6; u++ {
		rs := random()
		rows = append(rows, rs)
		if id := m.AddUser(rs); id != u {
			t.Fatalf("AddUser returned %d, want %d", id, u)
		}
		check(fmt.Sprintf("add %d", u))
	}
	for u := range rows {
		for _, s := range steps {
			set(u, s.edit(rows[u]))
			check(fmt.Sprintf("user %d %s", u, s.name))
		}
	}
	for step := 0; step < 300; step++ {
		if rng.Intn(8) == 0 {
			rows = append(rows, nil)
			m.AddUser(nil)
		}
		u := rng.Intn(len(rows))
		s := steps[rng.Intn(len(steps))]
		set(u, s.edit(rows[u]))
		check(fmt.Sprintf("step %d user %d %s", step, u, s.name))
	}
}

func TestMatrixPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewMatrix(0) },
		func() { NewMatrix(3).SetUser(0, nil) },
		func() { m := NewMatrix(3); m.AddUser([]Rating{{Item: 5, Score: 1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestWeightKnown(t *testing.T) {
	a := []Rating{{0, 1}, {1, 2}, {2, 3}}
	b := []Rating{{0, 2}, {1, 4}, {2, 6}}
	if w := Weight(a, b); math.Abs(w-1) > 1e-9 {
		t.Fatalf("perfectly correlated weight = %v", w)
	}
	c := []Rating{{0, 3}, {1, 2}, {2, 1}}
	if w := Weight(a, c); math.Abs(w+1) > 1e-9 {
		t.Fatalf("anti-correlated weight = %v", w)
	}
	// Disjoint items: no co-ratings, weight 0.
	d := []Rating{{7, 5}, {8, 1}}
	if w := Weight(a, d); w != 0 {
		t.Fatalf("disjoint weight = %v", w)
	}
	// Single co-rated item: 0 (fewer than two pairs).
	e := []Rating{{0, 5}}
	if w := Weight(a, e); w != 0 {
		t.Fatalf("single-overlap weight = %v", w)
	}
	if Weight(a, b) != Weight(b, a) {
		t.Fatal("weight not symmetric")
	}
}

func TestFeatureSource(t *testing.T) {
	m := NewMatrix(4)
	m.AddUser([]Rating{{Item: 2, Score: 3.5}, {Item: 0, Score: 1}})
	fs := FeatureSource{M: m}
	if fs.NumPoints() != 1 || fs.NumFeatures() != 4 {
		t.Fatal("adapter shape wrong")
	}
	cells := fs.Features(0)
	if len(cells) != 2 || cells[0].Col != 0 || cells[0].Val != 1 || cells[1].Col != 2 || cells[1].Val != 3.5 {
		t.Fatalf("cells = %v", cells)
	}
}

func TestAggregate(t *testing.T) {
	m := NewMatrix(5)
	m.AddUser([]Rating{{0, 2}, {1, 4}})
	m.AddUser([]Rating{{0, 4}, {2, 1}})
	ag := m.AggregateGroup(synopsis.Group{ID: 7, Members: []int{0, 1}})
	if ag.GroupID != 7 {
		t.Fatal("group id lost")
	}
	want := map[int32]float64{0: 3, 1: 4, 2: 1}
	if len(ag.Ratings) != 3 {
		t.Fatalf("ratings = %v", ag.Ratings)
	}
	for _, r := range ag.Ratings {
		if math.Abs(want[r.Item]-r.Score) > 1e-9 {
			t.Fatalf("item %d score %v, want %v", r.Item, r.Score, want[r.Item])
		}
	}
	if math.Abs(ag.Mean-(3+4+1)/3.0) > 1e-9 {
		t.Fatalf("agg mean = %v", ag.Mean)
	}
}

func TestBuildComponent(t *testing.T) {
	rng := stats.NewRNG(1)
	m, _ := testMatrix(rng, 300, 40, 4, 0.4)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Aggs) != c.Syn.NumGroups() {
		t.Fatalf("aggs %d vs groups %d", len(c.Aggs), c.Syn.NumGroups())
	}
	// The synopsis must be much smaller than the input data.
	if c.SynopsisSize() >= m.NumRatings()/2 {
		t.Fatalf("synopsis %d not much smaller than data %d", c.SynopsisSize(), m.NumRatings())
	}
	// GroupSize sums member ratings.
	total := 0
	for g := range c.Aggs {
		total += c.GroupSize(g)
	}
	if total != m.NumRatings() {
		t.Fatalf("group sizes sum to %d, want %d", total, m.NumRatings())
	}
}

func TestApplyChangesReusesAggregates(t *testing.T) {
	rng := stats.NewRNG(2)
	m, _ := testMatrix(rng, 300, 40, 4, 0.4)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Add one new user.
	newRatings := []Rating{{Item: 0, Score: 3}, {Item: 5, Score: 4}, {Item: 9, Score: 2}}
	uid := m.AddUser(newRatings)
	st, err := c.ApplyChanges([]synopsis.Change{{
		Kind:  synopsis.Add,
		Cells: FeatureSource{M: m}.Features(uid),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsKept == 0 {
		t.Fatal("no aggregates reused after a single add")
	}
	// Every group's aggregate must match a fresh aggregation.
	for i, g := range c.Syn.Groups() {
		fresh := m.AggregateGroup(g)
		if len(fresh.Ratings) != len(c.Aggs[i].Ratings) {
			t.Fatalf("group %d aggregate stale", i)
		}
		for j := range fresh.Ratings {
			if fresh.Ratings[j] != c.Aggs[i].Ratings[j] {
				t.Fatalf("group %d aggregate rating %d stale", i, j)
			}
		}
	}
}

func TestResultMergeAndPredictions(t *testing.T) {
	a := Result{Num: []float64{1, 0}, Den: []float64{2, 0}}
	b := Result{Num: []float64{3, 1}, Den: []float64{2, 2}}
	a.Merge(b)
	p := a.Predictions(3)
	if math.Abs(p[0]-4) > 1e-9 { // 3 + 4/4
		t.Fatalf("p0 = %v", p[0])
	}
	if math.Abs(p[1]-3.5) > 1e-9 { // 3 + 1/2
		t.Fatalf("p1 = %v", p[1])
	}
	// Zero denominator falls back to the active mean.
	z := NewResult(1).Predictions(2.5)
	if z[0] != 2.5 {
		t.Fatalf("fallback = %v", z[0])
	}
}

func TestEngineConvergesToExact(t *testing.T) {
	// The central correctness property: after processing every ranked set,
	// Algorithm 1's result equals exact full computation.
	rng := stats.NewRNG(3)
	m, _ := testMatrix(rng, 250, 40, 4, 0.4)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(
		[]Rating{{0, 4}, {3, 2}, {7, 5}, {11, 3}, {15, 4}, {20, 1}, {25, 3}},
		[]int32{1, 2, 5, 30},
	)
	e := NewEngine(c, req)
	corr := e.ProcessSynopsis()
	if len(corr) != len(c.Aggs) {
		t.Fatalf("corr len %d", len(corr))
	}
	for g := range c.Aggs {
		e.ProcessSet(g)
	}
	got := e.Result()
	want := ExactResult(c, req)
	for i := range want.Num {
		if math.Abs(got.Num[i]-want.Num[i]) > 1e-6 || math.Abs(got.Den[i]-want.Den[i]) > 1e-6 {
			t.Fatalf("target %d: got (%v,%v) want (%v,%v)", i, got.Num[i], got.Den[i], want.Num[i], want.Den[i])
		}
	}
}

func TestEngineInitialResultIsUsable(t *testing.T) {
	rng := stats.NewRNG(4)
	m, _ := testMatrix(rng, 250, 40, 4, 0.5)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(m.Ratings(0)[:4], []int32{10, 20})
	e := NewEngine(c, req)
	e.ProcessSynopsis()
	preds := e.Result().Predictions(req.ActiveMean())
	for _, p := range preds {
		if math.IsNaN(p) || p < -5 || p > 15 {
			t.Fatalf("implausible initial prediction %v", p)
		}
	}
}

func TestRankedOrderBeatsReverseOrder(t *testing.T) {
	// Processing high-correlation sets first must reach low error sooner
	// than processing them last: this is the paper's key idea.
	rng := stats.NewRNG(5)
	m, clusters := testMatrix(rng, 300, 50, 4, 0.5)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Aggs) < 4 {
		t.Skip("too few groups for ordering test")
	}
	// Active user: cluster 0's taste; hide some ratings as ground truth.
	active := m.Ratings(0)
	known := append([]Rating(nil), active[:len(active)/2]...)
	var targets []int32
	var truth []float64
	for _, r := range active[len(active)/2:] {
		targets = append(targets, r.Item)
		truth = append(truth, r.Score)
	}
	_ = clusters
	req := NewRequest(known, targets)

	rmseAfter := func(order []int, k int) float64 {
		e := NewEngine(c, req)
		corr := e.ProcessSynopsis()
		_ = corr
		for _, g := range order[:k] {
			e.ProcessSet(g)
		}
		return RMSE(e.Result().Predictions(req.ActiveMean()), truth)
	}
	eRank := NewEngine(c, req)
	corr := eRank.ProcessSynopsis()
	ranked := make([]int, len(corr))
	reversed := make([]int, len(corr))
	ids := make([]int, len(corr))
	for i := range ids {
		ids[i] = i
	}
	// Sort ids by corr descending (selection).
	for i := range ids {
		best := i
		for j := i + 1; j < len(ids); j++ {
			if corr[ids[j]] > corr[ids[best]] {
				best = j
			}
		}
		ids[i], ids[best] = ids[best], ids[i]
	}
	copy(ranked, ids)
	for i := range ids {
		reversed[i] = ids[len(ids)-1-i]
	}
	k := len(ranked) / 3
	if k == 0 {
		k = 1
	}
	rRanked := rmseAfter(ranked, k)
	rReversed := rmseAfter(reversed, k)
	if rRanked > rReversed+0.05 {
		t.Fatalf("ranked order RMSE %v worse than reversed %v", rRanked, rReversed)
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2}, []float64{1, 4}); math.Abs(got-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("RMSE = %v", got)
	}
	if !math.IsNaN(RMSE(nil, nil)) {
		t.Fatal("empty RMSE should be NaN")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestRequestActiveMean(t *testing.T) {
	r := NewRequest([]Rating{{0, 2}, {1, 4}}, nil)
	if r.ActiveMean() != 3 {
		t.Fatalf("mean = %v", r.ActiveMean())
	}
	if (Request{}).ActiveMean() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestEngineWithEmptyActiveRatings(t *testing.T) {
	rng := stats.NewRNG(50)
	m, _ := testMatrix(rng, 100, 30, 4, 0.4)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(nil, []int32{1, 2})
	e := NewEngine(c, req)
	corr := e.ProcessSynopsis()
	for _, w := range corr {
		if w != 0 {
			t.Fatalf("empty active user produced correlation %v", w)
		}
	}
	for g := range c.Aggs {
		e.ProcessSet(g)
	}
	preds := e.Result().Predictions(req.ActiveMean())
	for _, p := range preds {
		if math.IsNaN(p) {
			t.Fatal("NaN prediction")
		}
	}
}

func TestPartialProcessingMonotoneTowardsExact(t *testing.T) {
	// Processing more ranked sets must (weakly) reduce the distance of
	// the partial result to the exact result, measured on the
	// accumulators directly.
	rng := stats.NewRNG(51)
	m, _ := testMatrix(rng, 200, 40, 4, 0.5)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	spec := m.Ratings(0)
	req := NewRequest(spec[:len(spec)/2], []int32{spec[len(spec)-1].Item})
	exact := ExactResult(c, req)

	e := NewEngine(c, req)
	corr := e.ProcessSynopsis()
	ranking := make([]int, len(corr))
	for i := range ranking {
		ranking[i] = i
	}
	// Selection sort by correlation descending.
	for i := range ranking {
		best := i
		for j := i + 1; j < len(ranking); j++ {
			if corr[ranking[j]] > corr[ranking[best]] {
				best = j
			}
		}
		ranking[i], ranking[best] = ranking[best], ranking[i]
	}
	prevDist := math.Inf(1)
	checkpoints := []int{0, len(ranking) / 2, len(ranking)}
	done := 0
	for _, cp := range checkpoints {
		for done < cp {
			e.ProcessSet(ranking[done])
			done++
		}
		r := e.Result()
		dist := math.Abs(r.Num[0]-exact.Num[0]) + math.Abs(r.Den[0]-exact.Den[0])
		if dist > prevDist+1e-9 && cp > 0 {
			// Distance can fluctuate per set (a set may overshoot), but
			// by the final checkpoint it must be ~0.
			if cp == len(ranking) {
				t.Fatalf("full processing did not converge: dist=%v", dist)
			}
		}
		prevDist = dist
	}
	if prevDist > 1e-6 {
		t.Fatalf("final distance to exact %v", prevDist)
	}
}

func TestAggregateGroupsParallelMatchesSerial(t *testing.T) {
	rng := stats.NewRNG(52)
	m, _ := testMatrix(rng, 300, 40, 4, 0.4)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	groups := c.Syn.Groups()
	parallel := synopsis.Aggregate(groups, nil, m.AggregateGroup)
	for i, g := range groups {
		serial := m.AggregateGroup(g)
		if len(serial.Ratings) != len(parallel[i].Ratings) {
			t.Fatalf("group %d differs", i)
		}
		for j := range serial.Ratings {
			if serial.Ratings[j] != parallel[i].Ratings[j] {
				t.Fatalf("group %d rating %d differs", i, j)
			}
		}
		if serial.Mean != parallel[i].Mean {
			t.Fatalf("group %d mean differs", i)
		}
	}
}

func TestAggregateGroupsReusesCache(t *testing.T) {
	rng := stats.NewRNG(53)
	m, _ := testMatrix(rng, 200, 30, 4, 0.4)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	groups := c.Syn.Groups()
	// Poison the cache: a cached aggregate must be returned verbatim.
	poisoned := AggregatedUser{GroupID: groups[0].ID, Mean: -42}
	prev := map[int64]AggregatedUser{groups[0].ID: poisoned}
	aggs := synopsis.Aggregate(groups, prev, m.AggregateGroup)
	if aggs[0].Mean != -42 {
		t.Fatal("cache not reused")
	}
	if len(aggs) > 1 && aggs[1].Mean == -42 {
		t.Fatal("cache leaked to other groups")
	}
}

func TestWeightPropertySymmetricBounded(t *testing.T) {
	rng := stats.NewRNG(54)
	f := func(seed uint32) bool {
		r := rng.Split(uint64(seed))
		mk := func() []Rating {
			var rs []Rating
			n := r.Intn(20) + 1
			for i := 0; i < n; i++ {
				rs = append(rs, Rating{Item: int32(r.Intn(30)), Score: 1 + 4*r.Float64()})
			}
			sortRatings(rs)
			// Dedup items (Weight assumes sorted unique items).
			out := rs[:0]
			var last int32 = -1
			for _, x := range rs {
				if x.Item != last {
					out = append(out, x)
					last = x.Item
				}
			}
			return out
		}
		a, b := mk(), mk()
		w1, w2 := Weight(a, b), Weight(b, a)
		return w1 == w2 && w1 >= -1 && w1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
