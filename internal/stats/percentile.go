package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (p in [0,100]) of values using
// linear interpolation between closest ranks. The input is not modified.
// It returns NaN for an empty input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	cp := make([]float64, len(values))
	copy(cp, values)
	sort.Float64s(cp)
	return percentileSorted(cp, p)
}

// PercentileSorted is like Percentile but requires values to be sorted
// ascending and does not copy.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LatencyRecorder accumulates latency observations (in milliseconds or any
// consistent unit) and answers percentile queries. It keeps the raw samples
// so that extreme tails (p99.9) are exact, which matters for the paper's
// headline metric; experiments at reproduction scale record at most a few
// hundred thousand samples per run.
type LatencyRecorder struct {
	samples []float64
	sorted  bool
}

// NewLatencyRecorder returns an empty recorder with the given capacity hint.
func NewLatencyRecorder(capHint int) *LatencyRecorder {
	return &LatencyRecorder{samples: make([]float64, 0, capHint)}
}

// Record adds one observation.
func (l *LatencyRecorder) Record(v float64) {
	l.samples = append(l.samples, v)
	l.sorted = false
}

// Merge adds all observations from other.
func (l *LatencyRecorder) Merge(other *LatencyRecorder) {
	l.samples = append(l.samples, other.samples...)
	l.sorted = false
}

// Count returns the number of recorded observations.
func (l *LatencyRecorder) Count() int { return len(l.samples) }

// Percentile returns the exact p-th percentile of the recorded samples.
func (l *LatencyRecorder) Percentile(p float64) float64 {
	if !l.sorted {
		sort.Float64s(l.samples)
		l.sorted = true
	}
	return PercentileSorted(l.samples, p)
}

// Max returns the largest recorded value (NaN when empty).
func (l *LatencyRecorder) Max() float64 {
	if len(l.samples) == 0 {
		return math.NaN()
	}
	if l.sorted {
		return l.samples[len(l.samples)-1]
	}
	m := l.samples[0]
	for _, v := range l.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean of the recorded values (NaN when empty).
func (l *LatencyRecorder) Mean() float64 {
	if len(l.samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range l.samples {
		sum += v
	}
	return sum / float64(len(l.samples))
}

// Reset discards all samples but keeps the allocation.
func (l *LatencyRecorder) Reset() {
	l.samples = l.samples[:0]
	l.sorted = false
}
