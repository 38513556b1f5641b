package experiments

import (
	"math"
	"sort"
	"testing"

	"accuracytrader/internal/stats"
)

// naivePercentile is the reference: copy and sort the bin afresh for
// every read.
func naivePercentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	cp := append([]float64(nil), vals...)
	sort.Float64s(cp)
	return stats.PercentileSorted(cp, p)
}

func fillSeries(seed uint64, bins, perBin int) *timeSeries {
	rng := stats.NewRNG(seed)
	s := newTimeSeries(1000, bins)
	for i := 0; i < bins; i++ {
		n := rng.Intn(perBin + 1) // some bins sparse or empty
		for j := 0; j < n; j++ {
			s.Add(float64(i)*1000+rng.Float64()*999, rng.LogNormal(2, 1))
		}
	}
	return s
}

// TestPercentileSeriesMatchesNaive asserts the reused-scratch path
// returns bit-identical values to the re-copy-and-re-sort reference,
// sparse and empty bins included.
func TestPercentileSeriesMatchesNaive(t *testing.T) {
	quantiles := []float64{0, 10, 50, 90, 95, 99, 99.9, 100}
	for seed := uint64(1); seed <= 5; seed++ {
		s := fillSeries(seed, 24, 40)
		for _, p := range quantiles {
			got := s.PercentileSeries(p)
			for i, bin := range s.bins {
				want := naivePercentile(bin, p)
				if math.IsNaN(want) != math.IsNaN(got[i]) || (!math.IsNaN(want) && want != got[i]) {
					t.Fatalf("seed %d bin %d p%.1f: got %v want %v", seed, i, p, got[i], want)
				}
			}
		}
	}
}
