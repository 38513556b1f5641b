package experiments

import (
	"math"
	"sort"

	"accuracytrader/internal/stats"
)

// The evaluation metrics of the paper (§4.1) and the time-binned series
// that renders the per-minute / per-hour panels of Figures 5-8.
//
// Accuracy-loss definitions (documented in EXPERIMENTS.md):
//
//   - Search engine: accuracy is the fraction of the actual top-10 pages
//     present in the retrieved top-10; exact processing scores 1 by
//     construction, so loss% = 100*(1 - overlap).
//   - Recommender: the paper reports losses in [0,100]% even when a
//     technique answers with no usable neighbours, so raw RMSE ratios do
//     not work as the loss measure. We define accuracy as prediction
//     skill over the trivial predictor (always answering the active
//     user's mean rating): skill = max(0, 1 - RMSE/RMSE_trivial). A
//     technique that degrades to the trivial answer has skill 0, i.e.
//     100% loss — exactly the regime Partial execution reaches under
//     overload. loss% = 100*(skill_exact - skill_approx)/skill_exact.

// skill converts an RMSE into prediction skill relative to the trivial
// baseline RMSE: 1 is perfect, 0 is no better than the baseline.
func skill(rmse, baselineRMSE float64) float64 {
	if baselineRMSE <= 0 || math.IsNaN(rmse) {
		return 0
	}
	s := 1 - rmse/baselineRMSE
	if s < 0 {
		return 0
	}
	return s
}

// lossPct is the percentage decrease from the exact accuracy to the
// approximate accuracy, clamped to [0,100].
func lossPct(exact, approx float64) float64 {
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

// overlapLossPct is the search-engine loss: 100*(1-overlap).
func overlapLossPct(overlap float64) float64 {
	return lossPct(1, overlap)
}

// timeSeries accumulates (time, value) observations into fixed-width time
// bins and reports per-bin summary statistics — the building block of the
// paper's fluctuation figures (one bin per minute for Figures 5-6, one
// per hour for Figures 7-8).
type timeSeries struct {
	binMs float64
	bins  [][]float64
}

// newTimeSeries returns a series with n bins of width binMs starting at t=0.
func newTimeSeries(binMs float64, n int) *timeSeries {
	if binMs <= 0 || n <= 0 {
		panic("experiments: invalid series shape")
	}
	return &timeSeries{binMs: binMs, bins: make([][]float64, n)}
}

// Add records value v at time t (ms). Out-of-range times are dropped.
func (s *timeSeries) Add(t, v float64) {
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
func (s *timeSeries) MeanSeries() []float64 {
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
func (s *timeSeries) PercentileSeries(p float64) []float64 {
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
