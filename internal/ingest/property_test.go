package ingest

import (
	"fmt"
	"math"
	"testing"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/stats"
)

// The property harness pins the sampling honesty of live ingestion:
// whatever interleaving of appends, delta publishes, and compactions a
// shard goes through, a compacted snapshot must be bit-identical to a
// frozen from-scratch build over the same data, and the reservoirs must
// keep sampling every row at the nominal per-level rate.

var aggQueries = []agg.Query{
	{Op: agg.Sum, Lo: math.Inf(-1), Hi: math.Inf(1)},
	{Op: agg.Count, Lo: 0.2, Hi: 0.8},
	{Op: agg.Avg, Lo: 0, Hi: 0.6},
}

func sameAggResult(a, b agg.Result) error {
	if len(a.Sum) != len(b.Sum) {
		return fmt.Errorf("keys %d vs %d", len(a.Sum), len(b.Sum))
	}
	for k := range a.Sum {
		if a.Sum[k] != b.Sum[k] || a.Cnt[k] != b.Cnt[k] ||
			a.SumVar[k] != b.SumVar[k] || a.CntVar[k] != b.CntVar[k] {
			return fmt.Errorf("key %d: (%v,%v,%v,%v) vs (%v,%v,%v,%v)", k,
				a.Sum[k], a.Cnt[k], a.SumVar[k], a.CntVar[k],
				b.Sum[k], b.Cnt[k], b.SumVar[k], b.CntVar[k])
		}
	}
	return nil
}

// TestAggLiveMatchesFrozenRebuild drives a live aggregation shard
// through random interleavings of batched appends, delta publishes, and
// compactions. After every compaction the snapshot must be bit-identical
// — every ladder level, every sample length, every exact answer — to a
// frozen one-shot build over the same rows; between compactions the
// exact path must still agree with a naive scan of the visible prefix.
func TestAggLiveMatchesFrozenRebuild(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := stats.NewRNG(0xa11ce + uint64(trial)*0x9e37)
		numKeys := 3 + rng.Intn(5)
		cfg := agg.Config{Rates: []float64{0.1, 0.3}, MinSample: 2, Seed: rng.Uint64()}
		l := NewAggLive(numKeys, cfg)

		var allKeys []int32
		var allVals []float64
		res := agg.NewResult(numKeys)
		want := agg.NewResult(numKeys)
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0, 1: // append a batch
				n := 1 + rng.Intn(30)
				keys := make([]int32, n)
				vals := make([]float64, n)
				for i := range keys {
					keys[i] = int32(rng.Intn(numKeys))
					vals[i] = rng.Float64()
				}
				if _, err := l.Append(keys, vals); err != nil {
					t.Fatal(err)
				}
				allKeys = append(allKeys, keys...)
				allVals = append(allVals, vals...)
			case 2:
				l.PublishDelta()
			case 3:
				if _, _, _, err := l.Compact(); err != nil {
					t.Fatal(err)
				}
			}

			snap, _ := l.Snapshot()
			n := snap.Rows()
			if n > len(allKeys) {
				t.Fatalf("trial %d step %d: snapshot exposes %d of %d rows", trial, step, n, len(allKeys))
			}
			// Exact path vs a naive scan of the visible arrival prefix
			// (tolerance: base accumulates in synopsis order, not
			// arrival order).
			for _, q := range aggQueries {
				res = snap.Exact(res, q)
				want = want.Reset(numKeys)
				for i := 0; i < n; i++ {
					if v := allVals[i]; q.Lo <= v && v < q.Hi {
						want.Sum[allKeys[i]] += v
						want.Cnt[allKeys[i]]++
					}
				}
				for k := 0; k < numKeys; k++ {
					if math.Abs(res.Sum[k]-want.Sum[k]) > 1e-9*(1+math.Abs(want.Sum[k])) ||
						res.Cnt[k] != want.Cnt[k] {
						t.Fatalf("trial %d step %d %v key %d: exact (%v,%v) vs naive (%v,%v)",
							trial, step, q.Op, k, res.Sum[k], res.Cnt[k], want.Sum[k], want.Cnt[k])
					}
				}
			}

			if snap.DeltaRows() != 0 || snap.Base() == nil {
				continue
			}
			// Merged epoch: bit-identity against the frozen rebuild.
			frozen, err := BuildAggSnapshot(numKeys, cfg, allKeys[:n], allVals[:n])
			if err != nil {
				t.Fatal(err)
			}
			ls, fs := snap.Base().Syn, frozen.Base().Syn
			sizes := make([]int, numKeys)
			for g := range sizes {
				sizes[g] = ls.StratumSize(g)
			}
			for g := 0; g < numKeys; g++ {
				if ls.StratumSize(g) != fs.StratumSize(g) {
					t.Fatalf("trial %d step %d stratum %d: size %d vs %d",
						trial, step, g, ls.StratumSize(g), fs.StratumSize(g))
				}
				for lev := 0; lev < ls.Levels(); lev++ {
					n, N := ls.SampleLen(lev, g), ls.StratumSize(g)
					if n != fs.SampleLen(lev, g) {
						t.Fatalf("trial %d step %d stratum %d level %d: sample %d vs %d",
							trial, step, g, lev, n, fs.SampleLen(lev, g))
					}
					// Reservoir maintenance honesty: the sample length
					// must track the grown strata, not their sizes at
					// some earlier epoch.
					wantLen := cappedLadderLen(sizes, cfg.Rates[lev], 2)[g]
					if N > 0 && n != wantLen {
						t.Fatalf("trial %d step %d stratum %d level %d: sample %d of %d, want %d",
							trial, step, g, lev, n, N, wantLen)
					}
				}
			}
			other := agg.NewResult(numKeys)
			for _, q := range aggQueries {
				res = snap.Exact(res, q)
				other = frozen.Exact(other, q)
				if err := sameAggResult(res, other); err != nil {
					t.Fatalf("trial %d step %d %v exact: %v", trial, step, q.Op, err)
				}
				for lev := 0; lev < ls.Levels(); lev++ {
					res = snap.QueryLevel(res, q, lev)
					other = frozen.QueryLevel(other, q, lev)
					if err := sameAggResult(res, other); err != nil {
						t.Fatalf("trial %d step %d %v level %d: %v", trial, step, q.Op, lev, err)
					}
				}
			}
		}
	}
}

// cappedLadderLen is the capped ladder's per-stratum sample lengths at
// one rate, spelt out step by step: the proportional row total, then
// the cap raised one row at a time while the total still covers it,
// then the rows left over, one each to the strata above the cap in
// stratum order.
func cappedLadderLen(sizes []int, rate float64, minSample int) []int {
	total := 0
	for _, N := range sizes {
		total += min(max(int(math.Ceil(rate*float64(N))), minSample), N)
	}
	spent := func(k int) int {
		rows := 0
		for _, N := range sizes {
			rows += min(N, k)
		}
		return rows
	}
	k := 0
	for spent(k+1) <= total && spent(k+1) > spent(k) {
		k++
	}
	left := total - spent(k)
	lens := make([]int, len(sizes))
	for g, N := range sizes {
		lens[g] = min(N, k)
		if N > k && left > 0 {
			lens[g]++
			left--
		}
	}
	return lens
}

// TestAggReservoirInclusionCLT checks sampling honesty statistically:
// across seeded trials, a fixed row's chance of landing in a ladder
// sample must match the nominal rate — both for a row that lived
// through a reservoir-growing compaction (no survivor bias) and for a
// row that arrived after the base was first built (no newcomer bias).
func TestAggReservoirInclusionCLT(t *testing.T) {
	const (
		T    = 400
		rate = 0.15
		n1   = 60
		n2   = 100
	)
	// Row i carries value i, so membership in the level-0 sample is
	// query-observable: Count over [i, i+1) is positive iff row i was
	// sampled (delta is empty at merged epochs).
	included := func(snap *AggSnapshot, res agg.Result, row int) (agg.Result, bool) {
		q := agg.Query{Op: agg.Count, Lo: float64(row), Hi: float64(row) + 1}
		res = snap.QueryLevel(res, q, 0)
		return res, res.Cnt[0] > 0
	}
	var hitFirst, hitOld, hitNew int
	res := agg.NewResult(1)
	for trial := 0; trial < T; trial++ {
		cfg := agg.Config{Rates: []float64{rate}, MinSample: 2, Seed: 0x5eed + uint64(trial)}
		l := NewAggLive(1, cfg)
		keys := make([]int32, n1)
		vals := make([]float64, n1)
		for i := range vals {
			vals[i] = float64(i)
		}
		if _, err := l.Append(keys, vals); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		snap, _ := l.Snapshot()
		var ok bool
		if res, ok = included(snap, res, 5); ok {
			hitFirst++
		}
		// Grow the stratum past the old sample and compact again: the
		// reservoir must extend, and old and new rows must be sampled
		// at the same rate.
		keys = make([]int32, n2-n1)
		vals = make([]float64, n2-n1)
		for i := range vals {
			vals[i] = float64(n1 + i)
		}
		if _, err := l.Append(keys, vals); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		snap, _ = l.Snapshot()
		if got, want := snap.Base().Syn.SampleLen(0, 0), int(math.Ceil(rate*n2)); got != want {
			t.Fatalf("trial %d: sample length %d after growth, want %d", trial, got, want)
		}
		if res, ok = included(snap, res, 5); ok {
			hitOld++
		}
		if res, ok = included(snap, res, n1+5); ok {
			hitNew++
		}
	}
	// Each inclusion is Bernoulli(rate) across trials; allow 4 sigma.
	mean := T * rate
	tol := 4*math.Sqrt(T*rate*(1-rate)) + 1
	for _, c := range []struct {
		name string
		hits int
	}{{"first build", hitFirst}, {"old row after growth", hitOld}, {"new row after growth", hitNew}} {
		if math.Abs(float64(c.hits)-mean) > tol {
			t.Errorf("%s: included in %d of %d trials, want %.0f±%.0f", c.name, c.hits, T, mean, tol)
		}
	}
}
