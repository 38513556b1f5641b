package agg

import (
	"math"
	"testing"

	"accuracytrader/internal/core"
	"accuracytrader/internal/stats"
)

// TestRankPrefersRelativeError pins the correlation Algorithm 1 ranks
// strata by: a heavy head stratum, whose absolute bound is wide but
// small beside its estimate, must rank after a light tail stratum
// whose few sampled rows leave it relatively uncertain.
func TestRankPrefersRelativeError(t *testing.T) {
	const head, tail = 0, 1
	rng := stats.NewRNG(5)
	tab := NewTable(2)
	for i := 0; i < 4000; i++ {
		tab.Append(head, rng.LogNormal(1, 0.7))
	}
	for i := 0; i < 40; i++ {
		tab.Append(tail, rng.LogNormal(1, 0.7))
	}
	c, err := BuildComponent(tab, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{Sum, Count} {
		q := Query{Op: op, Lo: 1, Hi: 4}
		e := NewEngine(c, q, 0)
		corr := e.ProcessSynopsis()
		r := e.Result()
		if r.Bound(op, head) <= r.Bound(op, tail) {
			t.Fatalf("%v: head bound %v not wider than tail bound %v", op, r.Bound(op, head), r.Bound(op, tail))
		}
		if first := core.Rank(corr)[0]; first != tail {
			t.Fatalf("%v: Rank(%v) starts at stratum %d, want the tail stratum %d", op, corr, first, tail)
		}
	}

	for _, tc := range []struct {
		name                     string
		op                       Op
		sum, cnt, sumVar, cntVar float64
		want                     float64
	}{
		{"zero bound", Sum, 12, 3, 0, 0, 0},
		{"zero bound on a zero estimate", Sum, 0, 0, 0, 0, 0},
		{"zero estimate", Sum, 0, 3, 4, 1, math.Inf(1)},
		{"zero count estimate", Count, 5, 0, 4, 1, math.Inf(1)},
		{"AVG of no rows", Avg, 3, 0, 4, 1, 0},
		{"AVG of a negative count", Avg, 3, -1, math.NaN(), math.NaN(), 0},
		{"NaN variance", Sum, 5, 1, math.NaN(), 0, math.Inf(1)},
		{"infinite estimate and bound", Avg, math.Inf(1), 1, 1, 1, math.Inf(1)},
		{"relative", Count, 4, -8, 0, 1, zCI / 8},
	} {
		r := NewResult(1)
		r.Sum[0], r.Cnt[0], r.SumVar[0], r.CntVar[0] = tc.sum, tc.cnt, tc.sumVar, tc.cntVar
		if got := r.correlation(tc.op, 0); !sameBits(got, tc.want) {
			t.Errorf("%s: correlation = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// FuzzCorrelationDifferential holds Result.correlation to the retained
// case-by-case naiveCorrelation bit for bit, on arbitrary accumulators
// (±0, ±Inf, NaN, subnormals, any raw bit pattern) under each op, and
// checks it never returns NaN, which core.Rank would order as equal to
// everything. Each input is an op byte, then Sum, Cnt, SumVar and
// CntVar in scanInput's encoding.
func FuzzCorrelationDifferential(f *testing.F) {
	f.Add([]byte{})
	// SUM of 0 with a variance: +Inf. COUNT on −0 with a subnormal variance.
	f.Add([]byte{0, 0, 2, 2, 0})
	f.Add([]byte{1, 0, 1, 0, 11})
	// AVG over a zero and a negative count (NaN variances): 0.
	f.Add([]byte{2, 2, 0, 2, 2})
	f.Add([]byte{2, 10, 3, 10, 10})
	// AVG of an infinite sum: Inf/Inf. A negative variance: a NaN bound.
	f.Add([]byte{2, 8, 2, 2, 2})
	f.Add([]byte{0, 2, 0, 3, 0})
	// Overflow: the largest sums and variances; a signalling-NaN count.
	f.Add([]byte{2, 14, 13, 14, 16})
	f.Add([]byte{1, 2, 0x80, 0x7f, 0xf0, 0, 0, 0, 0, 0, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := scanInput(data)
		op := Op(in.byte() % 3)
		r := NewResult(1)
		r.Sum[0], r.Cnt[0], r.SumVar[0], r.CntVar[0] = in.f64(), in.f64(), in.f64(), in.f64()
		na := newNaiveAnswer()
		na.sum[0], na.cnt[0], na.sumVar[0], na.cntVar[0] = r.Sum[0], r.Cnt[0], r.SumVar[0], r.CntVar[0]
		got, want := r.correlation(op, 0), naiveCorrelation(na, op, 0)
		if math.IsNaN(got) {
			t.Fatalf("%v of (%v,%v,%v,%v): correlation is NaN", op, r.Sum[0], r.Cnt[0], r.SumVar[0], r.CntVar[0])
		}
		if !sameBits(got, want) {
			t.Fatalf("%v of (%v,%v,%v,%v): correlation %v, naive %v",
				op, r.Sum[0], r.Cnt[0], r.SumVar[0], r.CntVar[0], got, want)
		}
	})
}
