package agg

import (
	"math"
	"testing"
)

// scanSpecials are the values a fuzz input names with one byte: the
// IEEE cases the mask has to get right (signed zeros, infinities, NaN,
// subnormals, the extremes) and a few ordinary ones, so windows and
// rows land exactly on each other's bounds often.
var scanSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 2, 3, -3,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 1e300, -1e-300,
}

// scanInput decodes fuzz bytes; an exhausted input reads as zeros.
type scanInput []byte

func (in *scanInput) byte() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// f64 reads one value: a selector byte below 0x80 names a special, one
// at or above it is followed by the value's 8 raw bytes (any payload,
// subnormal or NaN bit pattern).
func (in *scanInput) f64() float64 {
	c := in.byte()
	if c < 0x80 {
		return scanSpecials[c%len(scanSpecials)]
	}
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(in.byte())
	}
	return math.Float64frombits(u)
}

// acc reads a starting accumulator: always a special, because a sum can
// hold any of them (−0.0 and NaN included) but never a signalling NaN.
func (in *scanInput) acc() float64 { return scanSpecials[in.byte()%len(scanSpecials)] }

// sameBits reports whether two floats have identical bit patterns.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzScanDifferential holds the masked scan kernels to the retained
// branchy references bit for bit. Each input decodes into a window
// (any bounds: Lo > Hi, NaN, ±Inf), a stratum of values in a decoded
// row order, and a key/value batch with arbitrary starting
// accumulators. Every sample prefix — lengths 0, 1, …, the whole
// stratum — goes through stratumEstimate against naiveStratum, and the
// raw scan it returns is resumed over the rest of the stratum against
// naiveExactStratum of the whole (split 0 is ExactResultInto's scan);
// the batch goes through Result.Fold against naiveFold. Every float is
// compared by its bits.
func FuzzScanDifferential(f *testing.F) {
	f.Add([]byte{})
	// Window [−1, 1) over 0, −0, 1, −1, NaN, +Inf; batch rows on both bounds.
	f.Add([]byte{3, 2, 6, 0, 1, 2, 3, 10, 8, 4, 1, 0, 2, 0, 1, 4, 0, 2, 1, 3, 0, 1, 1, 0, 1, 1, 0, 0})
	// A fold onto −0.0 accumulators: a kept −0.0 row must keep the sign.
	f.Add([]byte{3, 2, 1, 1, 0, 3, 0, 1, 0, 1, 0, 9, 1, 1})
	// Window [−Inf, +Inf) over huge values: sums overflow to ±Inf and NaN.
	f.Add([]byte{9, 8, 5, 14, 14, 15, 16, 8, 1, 2, 3, 2, 1, 3, 0, 14, 1, 15, 0, 8, 8, 9, 10, 0})
	// Lo > Hi keeps nothing; a window of subnormals keeps ±0 and −5e-324.
	f.Add([]byte{2, 3, 4, 11, 12, 13, 0, 1, 0, 2, 0, 2, 0, 11, 0, 12, 0, 1})
	f.Add([]byte{12, 11, 4, 11, 12, 0, 1, 2, 1, 0, 0, 3, 0, 12, 0, 1, 0, 11, 1, 0})
	// A NaN bound keeps nothing.
	f.Add([]byte{10, 2, 3, 0, 2, 3, 1, 0, 0, 1, 0, 0, 0, 0})
	// Raw bit patterns: Hi the largest subnormal, a signalling-NaN row, a
	// row equal to Hi, and a batch row of −5e-324.
	f.Add([]byte{9, 0x80, 0x00, 0x0f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		3, 0x80, 0x7f, 0xf0, 0, 0, 0, 0, 0, 1, 0x80, 0x00, 0x0f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 11,
		1, 0, 0, 2, 0, 0x80, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 13, 1, 0})
	// Window [−3, 3) over 1, 2, 0.5, −1 in stored order: a resume from the
	// scaled estimate (N/k · sum) starts at 4 after the first row, not 1.
	f.Add([]byte{7, 6, 4, 2, 5, 4, 3, 3, 2, 1})
	// Window [−Inf, +Inf) over −0, +0, NaN: every sum is +0.0, so only the
	// kept count shows a resume that skips the row at the split.
	f.Add([]byte{9, 8, 3, 1, 0, 10, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := scanInput(data)
		q := Query{Lo: in.f64(), Hi: in.f64()}

		// One stratum: values, then a Fisher–Yates row order over them.
		n := in.byte() % 65
		keys := make([]int32, n)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = in.f64()
		}
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := in.byte() % (i + 1)
			rows[i], rows[j] = rows[j], rows[i]
		}
		tab := TableFromColumns(keys, vals, 1)
		N := float64(n)
		exact := newNaiveAnswer()
		exact.naiveExactStratum(tab, q, rows, 0)
		for k := 0; k <= n; k++ {
			na := newNaiveAnswer()
			na.naiveStratum(tab, q, rows[:k], N, 0)
			sum, cnt, sumVar, cntVar, p := stratumEstimate(vals, q, rows[:k], N)
			if !sameBits(sum, na.sum[0]) || !sameBits(cnt, na.cnt[0]) ||
				!sameBits(sumVar, na.sumVar[0]) || !sameBits(cntVar, na.cntVar[0]) {
				t.Fatalf("%+v sample %d of %d: stratumEstimate (%v,%v,%v,%v), naive (%v,%v,%v,%v)",
					q, k, n, sum, cnt, sumVar, cntVar, na.sum[0], na.cnt[0], na.sumVar[0], na.cntVar[0])
			}
			whole := p.resume(vals, q, rows)
			if !sameBits(whole.sum, exact.sum[0]) || !sameBits(float64(whole.kept), exact.cnt[0]) || whole.rows != n {
				t.Fatalf("%+v stratum of %d resumed after %d: (%v,%v over %d rows), naive (%v,%v)",
					q, n, k, whole.sum, whole.kept, whole.rows, exact.sum[0], exact.cnt[0])
			}
		}

		// One key/value batch folded onto arbitrary accumulators.
		numKeys := 1 + in.byte()%4
		m := in.byte() % 33
		bkeys := make([]int32, m)
		bvals := make([]float64, m)
		for i := range bkeys {
			bkeys[i] = int32(in.byte() % numKeys)
			bvals[i] = in.f64()
		}
		got, want := NewResult(numKeys), NewResult(numKeys)
		for k := 0; k < numKeys; k++ {
			got.Sum[k], got.Cnt[k] = in.acc(), in.acc()
			want.Sum[k], want.Cnt[k] = got.Sum[k], got.Cnt[k]
		}
		got.Fold(q, bkeys, bvals)
		naiveFold(want, q, bkeys, bvals)
		for k := 0; k < numKeys; k++ {
			if !sameBits(got.Sum[k], want.Sum[k]) || !sameBits(got.Cnt[k], want.Cnt[k]) {
				t.Fatalf("%+v fold key %d: (%v,%v), naive (%v,%v)", q, k, got.Sum[k], got.Cnt[k], want.Sum[k], want.Cnt[k])
			}
		}
	})
}

// TestKeepIsTheWindow pins the mask to the window's definition on the
// values where a branch-free rewrite goes wrong: the bounds themselves,
// signed zeros and NaN on either side.
func TestKeepIsTheWindow(t *testing.T) {
	for _, lo := range scanSpecials {
		for _, hi := range scanSpecials {
			q := Query{Lo: lo, Hi: hi}
			for _, v := range scanSpecials {
				got, s := q.keep(v)
				want, ws := math.Copysign(0, -1), uint64(0)
				if lo <= v && v < hi {
					want, ws = v, 1
				}
				if !sameBits(got, want) || s != ws {
					t.Fatalf("window [%v,%v) keep(%v) = (%v,%d), want (%v,%d)", lo, hi, v, got, s, want, ws)
				}
			}
		}
	}
}

// TestNewResultOneAllocation counts the agg result's cost: its four
// arrays are one allocation, each capped so an append cannot spill
// into its neighbour.
func TestNewResultOneAllocation(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = NewResult(48) }); n != 1 {
		t.Fatalf("NewResult allocates %v times, want 1", n)
	}
	r := NewResult(3)
	for name, s := range map[string][]float64{"Sum": r.Sum, "Cnt": r.Cnt, "SumVar": r.SumVar, "CntVar": r.CntVar} {
		if len(s) != 3 || cap(s) != 3 {
			t.Fatalf("%s: len %d cap %d, want 3/3", name, len(s), cap(s))
		}
	}
	r.Sum = append(r.Sum, 7)
	if r.Cnt[0] != 0 {
		t.Fatal("appending to Sum wrote into Cnt")
	}
}
