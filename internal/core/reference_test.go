package core

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// referenceRank is Rank as it was first written, kept as the reference
// the live one is held to: sort.SliceStable under the predicate
// corr[a] > corr[b].
func referenceRank(corr []float64) []int {
	ids := make([]int, len(corr))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return corr[ids[a]] > corr[ids[b]] })
	return ids
}

// rankPalette is what a fuzz byte decodes to: few distinct values, so
// ties are common, plus both zeros, both infinities and NaN.
var rankPalette = [...]float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1, 0.5, 0.25, 2, 1e-300, -1e300, 3, 3, 0.5, 1,
}

// fuzzCorrelations decodes data into up to 300 correlations: the first
// two bytes pick the length, each further byte a palette value; past
// the end of data the bytes repeat, mixed with the position.
func fuzzCorrelations(data []byte) []float64 {
	if len(data) < 2 {
		return nil
	}
	n := (int(data[0])<<8 | int(data[1])) % 301
	body := data[2:]
	corr := make([]float64, n)
	for i := range corr {
		var b byte
		if len(body) > 0 {
			b = body[i%len(body)]
			if i >= len(body) {
				b ^= byte(i * 7)
			}
		}
		corr[i] = rankPalette[int(b)%len(rankPalette)]
	}
	return corr
}

// FuzzRankDifferential holds Rank and Run's pooled ranking to
// referenceRank on arbitrary correlation vectors of length 0-300 — ties,
// ±0, ±Inf and NaN — comparing the id sequences exactly.
func FuzzRankDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 5, 9, 7, 9, 5})
	f.Add([]byte{0, 21, 4, 0, 4, 1, 4, 2, 4})                  // NaN among ties, past one insertion-sort block
	f.Add([]byte{1, 44, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) // 300: every symMerge level
	f.Add([]byte{0, 64, 1, 0, 1, 0, 1, 0})                     // ±0 only
	f.Add([]byte{0, 99, 2, 3, 4, 4, 3, 2})                     // ±Inf and NaN only
	f.Fuzz(func(t *testing.T, data []byte) {
		corr := fuzzCorrelations(data)
		want := referenceRank(corr)
		if got := Rank(corr); !slices.Equal(got, want) {
			t.Fatalf("Rank(%v) = %v, reference %v", corr, got, want)
		}
		// Run ranks into a pooled buffer: its processing order is the
		// same sequence, whatever the buffer held before.
		e := &fakeEngine{corr: corr}
		Run(e, BudgetContinue(len(corr)), 0)
		if !slices.Equal(e.processed, want) {
			t.Fatalf("Run processed %v over %v, reference ranking %v", e.processed, corr, want)
		}
	})
}
