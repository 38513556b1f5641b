package metrics

import (
	"math"
	"sort"

	"accuracytrader/internal/stats"
)

// Skill converts an RMSE into prediction skill relative to the trivial
// baseline RMSE: 1 is perfect, 0 is no better than the baseline.
func Skill(rmse, baselineRMSE float64) float64 {
	if baselineRMSE <= 0 || math.IsNaN(rmse) {
		return 0
	}
	s := 1 - rmse/baselineRMSE
	if s < 0 {
		return 0
	}
	return s
}

// LossPct is the percentage decrease from the exact accuracy to the
// approximate accuracy, clamped to [0,100].
func LossPct(exact, approx float64) float64 {
	if exact <= 0 {
		return 0
	}
	l := 100 * (exact - approx) / exact
	if l < 0 {
		return 0
	}
	if l > 100 {
		return 100
	}
	return l
}

// OverlapLossPct is the search-engine loss: 100*(1-overlap).
func OverlapLossPct(overlap float64) float64 {
	return LossPct(1, overlap)
}

// Series accumulates (time, value) observations into fixed-width time
// bins and reports per-bin summary statistics — the building block of the
// paper's fluctuation figures (one bin per minute for Figures 5-6, one
// per hour for Figures 7-8).
type Series struct {
	binMs float64
	bins  [][]float64
}

// NewSeries returns a series with n bins of width binMs starting at t=0.
func NewSeries(binMs float64, n int) *Series {
	if binMs <= 0 || n <= 0 {
		panic("metrics: invalid series shape")
	}
	return &Series{binMs: binMs, bins: make([][]float64, n)}
}

// Add records value v at time t (ms). Out-of-range times are dropped.
func (s *Series) Add(t, v float64) {
	if t < 0 {
		return
	}
	i := int(t / s.binMs)
	if i >= len(s.bins) {
		return
	}
	s.bins[i] = append(s.bins[i], v)
}

// MeanSeries returns per-bin means (NaN for an empty bin).
func (s *Series) MeanSeries() []float64 {
	out := make([]float64, len(s.bins))
	for i, bin := range s.bins {
		if len(bin) == 0 {
			out[i] = math.NaN()
			continue
		}
		sum := 0.0
		for _, v := range bin {
			sum += v
		}
		out[i] = sum / float64(len(bin))
	}
	return out
}

// PercentileSeries returns per-bin p-th percentiles (NaN for an empty
// bin). Each bin is copied into one reused scratch buffer and sorted
// there, so the series itself is never reordered.
func (s *Series) PercentileSeries(p float64) []float64 {
	out := make([]float64, len(s.bins))
	var scratch []float64
	for i, bin := range s.bins {
		if len(bin) == 0 {
			out[i] = math.NaN()
			continue
		}
		scratch = append(scratch[:0], bin...)
		sort.Float64s(scratch)
		out[i] = stats.PercentileSorted(scratch, p)
	}
	return out
}
