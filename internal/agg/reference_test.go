package agg

// Reference (naive) implementations of the aggregation engine, retained
// as test-only helpers: the property tests assert the pooled,
// buffer-reusing engine is bit-identical to simple allocation-heavy
// semantics on randomized tables and queries, so the fast path cannot
// silently diverge.

import (
	"fmt"
	"math"
	"testing"

	"accuracytrader/internal/stats"
)

// naiveAnswer is the reference result: per-key maps instead of dense
// arrays, freshly allocated per query.
type naiveAnswer struct {
	sum, cnt, sumVar, cntVar map[int]float64
}

func newNaiveAnswer() *naiveAnswer {
	return &naiveAnswer{
		sum:    map[int]float64{},
		cnt:    map[int]float64{},
		sumVar: map[int]float64{},
		cntVar: map[int]float64{},
	}
}

// naiveStratum computes one stratum's sample estimate with the plain
// textbook formulas and the Agresti–Coull variance floors, mirroring
// the optimized kernel's operation order so accumulators stay
// bit-identical.
func (na *naiveAnswer) naiveStratum(t *Table, q Query, sample []int32, N float64, key int) {
	n := float64(len(sample))
	sy, syy, svv, sb := 0.0, 0.0, 0.0, 0.0
	for _, row := range sample {
		v := t.Value(int(row))
		if q.Lo <= v && v < q.Hi {
			sy += v
			syy += v * v
			sb++
		}
		svv += v * v
	}
	scale := N / n
	na.sum[key] = scale * sy
	na.cnt[key] = scale * sb
	if n >= N {
		na.sumVar[key] = 0
		na.cntVar[key] = 0
		return
	}
	fpc := 1 - n/N
	// Agresti–Coull: two pseudo-successes and two pseudo-failures.
	pt := (sb + 2) / (n + 4)
	s2y := (syy - sy*sy/n) / (n - 1)
	if s2y < 0 {
		s2y = 0
	}
	if floor := pt * (1 - pt) * svv / n; floor > s2y {
		s2y = floor
	}
	s2b := (sb - sb*sb/n) / (n - 1)
	if floor := pt * (1 - pt); floor > s2b {
		s2b = floor
	}
	na.sumVar[key] = N * N * s2y / n * fpc
	na.cntVar[key] = N * N * s2b / n * fpc
}

// naiveExactStratum replaces one stratum with its exact scan.
func (na *naiveAnswer) naiveExactStratum(t *Table, q Query, rows []int32, key int) {
	sum, cnt := 0.0, 0.0
	for _, row := range rows {
		v := t.Value(int(row))
		if q.Lo <= v && v < q.Hi {
			sum += v
			cnt++
		}
	}
	na.sum[key] = sum
	na.cnt[key] = cnt
	na.sumVar[key] = 0
	na.cntVar[key] = 0
}

// naiveFold is the branchy delta fold the scatter kernel Result.Fold
// replaced: a kept row adds its value and a count of one, a dropped row
// touches nothing.
func naiveFold(r Result, q Query, keys []int32, vals []float64) {
	for i, k := range keys {
		if v := vals[i]; q.Lo <= v && v < q.Hi {
			r.Sum[k] += v
			r.Cnt[k]++
		}
	}
}

// naiveSynopsisAnswer runs the synopsis stage of Algorithm 1 naively.
func naiveSynopsisAnswer(c *Component, q Query, level int) *naiveAnswer {
	na := newNaiveAnswer()
	for g := 0; g < c.Syn.NumStrata(); g++ {
		N := float64(c.Syn.StratumSize(g))
		if N == 0 {
			continue
		}
		na.naiveStratum(c.T, q, c.Syn.sample(level, g), N, g)
	}
	return na
}

// checkAgainstNaive asserts the engine result equals the naive maps
// bit for bit.
func checkAgainstNaive(t *testing.T, res Result, na *naiveAnswer, ctx string) {
	t.Helper()
	for k := range res.Sum {
		if res.Sum[k] != na.sum[k] || res.Cnt[k] != na.cnt[k] ||
			res.SumVar[k] != na.sumVar[k] || res.CntVar[k] != na.cntVar[k] {
			t.Fatalf("%s: key %d got (%v,%v,%v,%v) want (%v,%v,%v,%v)", ctx, k,
				res.Sum[k], res.Cnt[k], res.SumVar[k], res.CntVar[k],
				na.sum[k], na.cnt[k], na.sumVar[k], na.cntVar[k])
		}
	}
}

// randomTable builds a Zipf-skewed fact table: most rows land on a few
// hot keys, some keys stay rare or empty.
func randomTable(rng *stats.RNG, keys, rows int) *Table {
	t := NewTable(keys)
	z := stats.NewZipf(rng, keys, 1.1)
	for i := 0; i < rows; i++ {
		t.Append(int32(z.Draw()), rng.LogNormal(1, 0.7))
	}
	return t
}

// randomQuery draws an op and a value window of moderate selectivity.
func randomQuery(rng *stats.RNG) Query {
	lo := rng.LogNormal(0.2, 0.5)
	return Query{
		Op: Op(rng.Intn(3)),
		Lo: lo,
		Hi: lo + rng.LogNormal(1.5, 0.5),
	}
}

// TestEngineMatchesNaiveReference pins the pooled engine bit-identical
// to the naive reference on randomized seeds: after ProcessSynopsis at
// every ladder level, and after each ranked ProcessSet improvement.
func TestEngineMatchesNaiveReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := stats.NewRNG(seed)
		tab := randomTable(rng, 5+rng.Intn(16), 200+rng.Intn(600))
		c, err := BuildComponent(tab, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			q := randomQuery(rng)
			level := rng.Intn(c.Syn.Levels())
			e := GetEngine(c, q, level)
			corr := e.ProcessSynopsis()
			na := naiveSynopsisAnswer(c, q, level)
			checkAgainstNaive(t, e.Result(), na,
				fmt.Sprintf("seed %d trial %d level %d synopsis", seed, trial, level))
			// Correlations must equal the naive per-stratum relative bounds.
			for g := range corr {
				want := 0.0
				if N := c.Syn.StratumSize(g); N > 0 {
					want = naiveCorrelation(na, q.Op, g, float64(N-c.Syn.SampleLen(level, g)))
				}
				if !sameBits(corr[g], want) {
					t.Fatalf("seed %d trial %d: corr[%d] = %v, naive %v", seed, trial, g, corr[g], want)
				}
			}
			// Improve sets in ranked order, checking after each.
			for i, g := range rankDesc(corr) {
				e.ProcessSet(g)
				na.naiveExactStratum(c.T, q, c.Syn.stratumRows(g), g)
				checkAgainstNaive(t, e.Result(), na,
					fmt.Sprintf("seed %d trial %d after set %d", seed, trial, i))
			}
			e.Release()
		}
	}
}

// naiveBound mirrors Result.Bound over the naive maps.
func naiveBound(na *naiveAnswer, op Op, k int) float64 {
	switch op {
	case Sum:
		return zCI * math.Sqrt(na.sumVar[k])
	case Count:
		return zCI * math.Sqrt(na.cntVar[k])
	default:
		if na.cnt[k] <= 0 {
			return 0
		}
		est := na.sum[k] / na.cnt[k]
		return (zCI*math.Sqrt(na.sumVar[k]) + math.Abs(est)*zCI*math.Sqrt(na.cntVar[k])) / na.cnt[k]
	}
}

// naiveEstimate mirrors Result.Estimate over the naive maps.
func naiveEstimate(na *naiveAnswer, op Op, k int) float64 {
	switch op {
	case Sum:
		return na.sum[k]
	case Count:
		return na.cnt[k]
	default:
		if na.cnt[k] <= 0 {
			return 0
		}
		return na.sum[k] / na.cnt[k]
	}
}

// naiveCorrelation is the relative bound per row spelt out case by
// case: 0 for a zero bound, +Inf for a positive bound on a zero
// estimate, over no rows, or a quotient that is NaN, else naiveBound /
// |naiveEstimate| / rows.
func naiveCorrelation(na *naiveAnswer, op Op, k int, rows float64) float64 {
	b, est := naiveBound(na, op, k), naiveEstimate(na, op, k)
	switch {
	case b == 0:
		return 0
	case est == 0, rows == 0:
		return math.Inf(1)
	case math.IsNaN(b / math.Abs(est) / rows):
		return math.Inf(1)
	}
	return b / math.Abs(est) / rows
}

// rankDesc is a simple descending-correlation ordering (ties toward the
// lower id), independent of core.Rank.
func rankDesc(corr []float64) []int {
	ids := make([]int, len(corr))
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if corr[ids[j]] > corr[ids[i]] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	return ids
}

// TestEngineResetReuseMatchesFresh checks a pooled/reset engine
// produces bit-identical results to a fresh engine across varying
// queries and levels.
func TestEngineResetReuseMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(31)
	tab := randomTable(rng, 12, 500)
	c, err := BuildComponent(tab, Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	reused := GetEngine(c, Query{}, 0)
	defer reused.Release()
	for trial := 0; trial < 15; trial++ {
		q := randomQuery(rng)
		level := rng.Intn(c.Syn.Levels())
		fresh := NewEngine(c, q, level)
		reused.Reset(c, q, level)
		fresh.ProcessSynopsis()
		reused.ProcessSynopsis()
		for g := 0; g < c.Syn.NumStrata(); g += 2 {
			fresh.ProcessSet(g)
			reused.ProcessSet(g)
		}
		for k := range fresh.res.Sum {
			if fresh.res.Sum[k] != reused.res.Sum[k] || fresh.res.SumVar[k] != reused.res.SumVar[k] ||
				fresh.res.Cnt[k] != reused.res.Cnt[k] || fresh.res.CntVar[k] != reused.res.CntVar[k] {
				t.Fatalf("trial %d key %d: reused diverges from fresh", trial, k)
			}
		}
	}
}

// naiveMeasureLevelAccuracy is the ladder calibration with its exact
// side taken by a separate ExactResultInto scan of every component,
// independent of the engine's resumed scans.
func naiveMeasureLevelAccuracy(comps []*Component, queries []Query, level int) float64 {
	if len(comps) == 0 || len(queries) == 0 {
		return 0
	}
	nKeys := comps[0].T.NumKeys()
	total := 0.0
	for _, q := range queries {
		approx, exact := NewResult(nKeys), NewResult(nKeys)
		for _, c := range comps {
			e := NewEngine(c, q, level)
			e.ProcessSynopsis()
			approx.Merge(e.Result())
			exact.Merge(ExactResultInto(Result{}, c, q))
		}
		total += Accuracy(approx.Estimates(q.Op), exact.Estimates(q.Op))
	}
	return total / float64(len(queries))
}

// TestMeasureLevelAccuracyMatchesNaive pins the calibration, whose exact
// side finishes the synopsis engine's scans, bit-identical to the one
// that scans every component again, at every level on randomized seeds.
func TestMeasureLevelAccuracyMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := stats.NewRNG(seed)
		keys := 5 + rng.Intn(16)
		comps := make([]*Component, 1+rng.Intn(4))
		for i := range comps {
			c, err := BuildComponent(randomTable(rng, keys, 200+rng.Intn(600)), Config{Seed: seed + uint64(i)})
			if err != nil {
				t.Fatal(err)
			}
			comps[i] = c
		}
		queries := make([]Query, 12)
		for i := range queries {
			queries[i] = randomQuery(rng)
		}
		for l := 0; l < comps[0].Syn.Levels(); l++ {
			got, want := MeasureLevelAccuracy(comps, queries, l), naiveMeasureLevelAccuracy(comps, queries, l)
			if !sameBits(got, want) {
				t.Fatalf("seed %d level %d: MeasureLevelAccuracy %v, naive %v", seed, l, got, want)
			}
		}
	}
}

// TestFullyImprovedMatchesExact checks that processing every set turns
// the approximate result into the exact one, bit for bit.
func TestFullyImprovedMatchesExact(t *testing.T) {
	rng := stats.NewRNG(7)
	tab := randomTable(rng, 10, 400)
	c, err := BuildComponent(tab, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var reused Result
	for trial := 0; trial < 10; trial++ {
		q := randomQuery(rng)
		e := NewEngine(c, q, 0)
		e.ProcessSynopsis()
		for g := 0; g < c.Syn.NumStrata(); g++ {
			e.ProcessSet(g)
		}
		want := ExactResult(c, q)
		reused = ExactResultInto(reused, c, q)
		for k := range want.Sum {
			if e.res.Sum[k] != want.Sum[k] || e.res.Cnt[k] != want.Cnt[k] {
				t.Fatalf("trial %d key %d: improved (%v,%v) exact (%v,%v)",
					trial, k, e.res.Sum[k], e.res.Cnt[k], want.Sum[k], want.Cnt[k])
			}
			if e.res.SumVar[k] != 0 || e.res.CntVar[k] != 0 {
				t.Fatalf("trial %d key %d: nonzero variance after full improvement", trial, k)
			}
			if reused.Sum[k] != want.Sum[k] || reused.Cnt[k] != want.Cnt[k] {
				t.Fatalf("trial %d key %d: ExactResultInto diverges from ExactResult", trial, k)
			}
		}
	}
}
