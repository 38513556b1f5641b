package agg

import (
	"math"
	"testing"

	"accuracytrader/internal/core"
	"accuracytrader/internal/stats"
)

func buildTestComponent(t *testing.T, seed uint64, keys, rows int) *Component {
	t.Helper()
	rng := stats.NewRNG(seed)
	c, err := BuildComponent(randomTable(rng, keys, rows), Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSynopsisShape(t *testing.T) {
	c := buildTestComponent(t, 3, 16, 900)
	syn := c.Syn
	if err := syn.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if syn.NumStrata() != 16 {
		t.Fatalf("strata = %d", syn.NumStrata())
	}
	if syn.Levels() != 4 {
		t.Fatalf("levels = %d", syn.Levels())
	}
	// Strata partition the rows.
	total := 0
	for g := 0; g < syn.NumStrata(); g++ {
		total += syn.StratumSize(g)
	}
	if total != c.T.NumRows() {
		t.Fatalf("strata cover %d of %d rows", total, c.T.NumRows())
	}
	// Sample units grow strictly with the ladder level, and the finest
	// level still samples (much) less than the full shard.
	for l := 1; l < syn.Levels(); l++ {
		if syn.SampleUnits(l) <= syn.SampleUnits(l-1) {
			t.Fatalf("sample units not increasing: level %d %d vs %d",
				l, syn.SampleUnits(l), syn.SampleUnits(l-1))
		}
	}
	if c.SynopsisSize() >= c.T.NumRows() {
		t.Fatalf("finest synopsis (%d) not smaller than shard (%d)", c.SynopsisSize(), c.T.NumRows())
	}
	// The rarest non-empty stratum keeps at least MinSample rows (or all
	// of them) at the coarsest level — the stratified-sampling guarantee.
	for g := 0; g < syn.NumStrata(); g++ {
		n, N := syn.SampleLen(0, g), syn.StratumSize(g)
		if N == 0 {
			continue
		}
		if n < 4 && n != N {
			t.Fatalf("stratum %d sampled %d of %d at coarsest level", g, n, N)
		}
	}
}

// TestCappedLadderBudget holds the capped ladder to its budget and
// shape on random stratum-size vectors: every level spends exactly the
// proportional row total Σ clamp(⌈rate·N⌉, MinSample, N), levels are
// nested, every stratum keeps its floor, and the split is even — the
// strata sampled in part hold K or K+1 rows, and every fully sampled
// stratum has at most K+1.
func TestCappedLadderBudget(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 300; trial++ {
		nStrata := 1 + rng.Intn(40)
		off := make([]int32, nStrata+1)
		for s := 0; s < nStrata; s++ {
			N := rng.Intn(12) // small and empty strata
			if rng.Intn(3) == 0 {
				N = rng.Intn(3000) // heavy ones
			}
			off[s+1] = off[s] + int32(N)
		}
		minSample := 2 + rng.Intn(10)
		cfg := Config{Rates: []float64{rng.Float64(), rng.Float64(), rng.Float64(), 1}, MinSample: minSample}.withDefaults()
		lens := ladderLens(off, cfg.Rates, minSample)
		for l, rate := range cfg.Rates {
			total, spent := 0, 0
			partial := math.MaxInt
			for s := 0; s < nStrata; s++ {
				N, n := int(off[s+1]-off[s]), int(lens[l][s])
				total += min(max(int(math.Ceil(rate*float64(N))), minSample), N)
				spent += n
				if n < min(minSample, N) || n > N {
					t.Fatalf("trial %d level %d stratum %d: %d of %d rows, floor %d", trial, l, s, n, N, minSample)
				}
				if l > 0 && n < int(lens[l-1][s]) {
					t.Fatalf("trial %d level %d stratum %d: %d rows, below level %d's %d", trial, l, s, n, l-1, lens[l-1][s])
				}
				if n < N {
					partial = min(partial, n)
				}
			}
			if spent != total {
				t.Fatalf("trial %d level %d: spends %d rows, budget %d", trial, l, spent, total)
			}
			for s := 0; s < nStrata; s++ {
				N, n := int(off[s+1]-off[s]), int(lens[l][s])
				if n < N && n > partial+1 || n == N && partial != math.MaxInt && N > partial+1 {
					t.Fatalf("trial %d level %d stratum %d: %d of %d rows against cap %d", trial, l, s, n, N, partial)
				}
			}
		}
	}
}

func TestConfigRateNormalization(t *testing.T) {
	cfg := Config{Rates: []float64{0.5, -1, 0.1, 0.5, 2}}.withDefaults()
	if len(cfg.Rates) != 2 || cfg.Rates[0] != 0.1 || cfg.Rates[1] != 0.5 {
		t.Fatalf("rates = %v", cfg.Rates)
	}
}

func TestCheckInvariantsRejectsCorruption(t *testing.T) {
	corruptions := map[string]func(s *Synopsis){
		"duplicate row":    func(s *Synopsis) { s.rows[0] = s.rows[1] },
		"no ladder levels": func(s *Synopsis) { s.lens = nil },
		"sample below variance floor": func(s *Synopsis) {
			for g := range s.lens[0] {
				if s.StratumSize(g) > 2 {
					for l := range s.lens {
						s.lens[l][g] = 1 // partial 1-row sample: n-1 == 0
					}
					return
				}
			}
		},
		"empty sample of non-empty stratum": func(s *Synopsis) {
			for g := range s.lens[0] {
				if s.StratumSize(g) > 0 {
					for l := range s.lens {
						s.lens[l][g] = 0
					}
					return
				}
			}
		},
	}
	for name, corrupt := range corruptions {
		c := buildTestComponent(t, 13, 8, 300)
		corrupt(c.Syn)
		if err := c.Syn.CheckInvariants(); err == nil {
			t.Fatalf("%s: corrupt synopsis passed its invariants", name)
		}
	}
}

// TestBoundsCoverExactAnswer checks the 95% CLT bounds are calibrated:
// across many strata and queries, the exact per-key SUM/COUNT falls
// inside estimate ± bound clearly more often than a broken bound would
// allow (the normal approximation on skewed lognormal strata is not
// exact, so the assertion uses 85%, not 95%).
func TestBoundsCoverExactAnswer(t *testing.T) {
	c := buildTestComponent(t, 17, 20, 4000)
	rng := stats.NewRNG(99)
	in, total := 0, 0
	for trial := 0; trial < 40; trial++ {
		q := randomQuery(rng)
		if q.Op == Avg {
			q.Op = Sum // AVG's delta bound is conservative by construction
		}
		e := NewEngine(c, q, 1)
		e.ProcessSynopsis()
		exact := ExactResult(c, q)
		for k := range exact.Sum {
			if c.Syn.StratumSize(k) == 0 || e.res.Bound(q.Op, k) == 0 {
				continue
			}
			total++
			if math.Abs(e.res.Estimate(q.Op, k)-exact.Estimate(q.Op, k)) <= e.res.Bound(q.Op, k) {
				in++
			}
		}
	}
	if total < 100 {
		t.Fatalf("only %d bounded estimates exercised", total)
	}
	if frac := float64(in) / float64(total); frac < 0.85 {
		t.Fatalf("bounds cover only %.1f%% of exact answers", 100*frac)
	}
}

// TestAccuracyImprovesWithLevel is the ladder's reason to exist:
// finer sampling rates must deliver higher mean accuracy.
func TestAccuracyImprovesWithLevel(t *testing.T) {
	c := buildTestComponent(t, 23, 16, 3000)
	rng := stats.NewRNG(5)
	queries := make([]Query, 40)
	for i := range queries {
		queries[i] = randomQuery(rng)
	}
	comps := []*Component{c}
	prev := -1.0
	for l := 0; l < c.Syn.Levels(); l++ {
		acc := MeasureLevelAccuracy(comps, queries, l)
		if acc <= prev {
			t.Fatalf("level %d accuracy %v not above level %d's %v", l, acc, l-1, prev)
		}
		prev = acc
	}
	if prev < 0.9 {
		t.Fatalf("finest level accuracy %v too low", prev)
	}
}

// TestImprovementMonotone runs Algorithm 1 through internal/core and
// checks accuracy never suffers from processing more ranked sets, and
// that the full budget reaches the exact answer.
func TestImprovementMonotone(t *testing.T) {
	c := buildTestComponent(t, 29, 12, 1500)
	rng := stats.NewRNG(8)
	var est, exactEst []float64
	for trial := 0; trial < 10; trial++ {
		q := randomQuery(rng)
		exact := ExactResult(c, q)
		exactEst = exact.EstimatesInto(exactEst, q.Op)
		prev := -1.0
		for _, budget := range []int{0, c.Syn.NumStrata() / 2, c.Syn.NumStrata()} {
			e := GetEngine(c, q, 0)
			trace := core.Run(e, core.BudgetContinue(budget), 0)
			if trace.SetsProcessed != budget {
				t.Fatalf("trial %d: processed %d of budget %d", trial, trace.SetsProcessed, budget)
			}
			est = e.Result().EstimatesInto(est, q.Op)
			acc := Accuracy(est, exactEst)
			// Fuzz tolerance: an individual stratum estimate can get
			// lucky, but the ranked order must never lose accuracy
			// materially, and more budget must help overall.
			if acc < prev-1e-9 {
				t.Fatalf("trial %d: accuracy fell from %v to %v at budget %d", trial, prev, acc, budget)
			}
			prev = acc
			e.Release()
		}
		if math.Abs(prev-1) > 1e-12 {
			t.Fatalf("trial %d: full improvement accuracy %v != 1", trial, prev)
		}
	}
}

func TestRelativeErrorEdgeCases(t *testing.T) {
	cases := []struct {
		a, e, want float64
	}{
		{0, 0, 0},
		{5, 0, 1},
		{0, 5, 1},
		{4, 5, 0.2},
		{500, 5, 1}, // capped
	}
	for _, tc := range cases {
		if got := relErr(tc.a, tc.e); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("relErr(%v,%v) = %v, want %v", tc.a, tc.e, got, tc.want)
		}
	}
	if acc := Accuracy([]float64{1, 2}, []float64{1, 2}); acc != 1 {
		t.Fatalf("exact match accuracy %v", acc)
	}
}

func TestResultMergeAcrossShards(t *testing.T) {
	a := buildTestComponent(t, 41, 10, 800)
	b := buildTestComponent(t, 42, 10, 800)
	q := Query{Op: Sum, Lo: 0, Hi: math.Inf(1)}
	merged := NewResult(10)
	for _, c := range []*Component{a, b} {
		e := GetEngine(c, q, c.Syn.Levels()-1)
		e.ProcessSynopsis()
		merged.Merge(e.Result())
		e.Release()
	}
	exact := NewResult(10)
	exact.Merge(ExactResult(a, q))
	exact.Merge(ExactResult(b, q))
	acc := Accuracy(merged.Estimates(q.Op), exact.Estimates(q.Op))
	if acc < 0.85 {
		t.Fatalf("merged shard accuracy %v", acc)
	}
}

func TestEngineLevelClamping(t *testing.T) {
	c := buildTestComponent(t, 51, 8, 400)
	lo := NewEngine(c, Query{Op: Count, Lo: 0, Hi: 100}, -5)
	hi := NewEngine(c, Query{Op: Count, Lo: 0, Hi: 100}, 99)
	if lo.Level != 0 || hi.Level != c.Syn.Levels()-1 {
		t.Fatalf("levels clamped to %d/%d", lo.Level, hi.Level)
	}
}

func TestEmptyTableRejected(t *testing.T) {
	if _, err := BuildSynopsis(NewTable(4), Config{}); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestMergeRejectsKeyDomainMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Merge did not panic")
		}
	}()
	NewResult(4).Merge(NewResult(6))
}

func TestEstimatesIntoReusesBuffer(t *testing.T) {
	r := Result{Sum: []float64{4, 6}, Cnt: []float64{2, 0}, SumVar: []float64{0, 0}, CntVar: []float64{0, 0}}
	buf := make([]float64, 0, 8)
	got := r.EstimatesInto(buf, Avg)
	if got[0] != 2 || got[1] != 0 {
		t.Fatalf("avg estimates = %v", got)
	}
	if cap(got) != cap(buf) {
		t.Fatal("buffer not reused")
	}
	bounds := r.BoundsInto(buf[:0], Sum)
	if len(bounds) != 2 || bounds[0] != 0 {
		t.Fatalf("bounds = %v", bounds)
	}
}
