package obs

import (
	"math"
	"time"
)

// Quantile returns an estimate of the q-th quantile by linear
// interpolation inside the holding bucket — coarse by design (fixed
// buckets), but monotone and cheap. Edge cases are pinned to sane
// values instead of bucket-boundary artifacts: an empty histogram
// returns 0 (not NaN, which would poison JSON encoders), q is clamped
// into [0,1], a single observation returns the exact mean, q=0 returns
// the lower edge of the first occupied bucket, q=1 the upper edge of
// the last occupied one, and a quantile landing in the open +Inf
// bucket reports the mean when it exceeds the bucket's lower edge (the
// only remaining signal about how far the tail runs) rather than the
// top finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	mean := h.Sum() / float64(total)
	if total == 1 {
		// One observation: the sum is the observation.
		return mean
	}
	rank := q * float64(total)
	var cum int64
	lo := 0.0
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n > 0 {
			hi := math.Inf(1)
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			if q == 0 {
				return lo // lower edge of the first occupied bucket
			}
			if float64(cum)+float64(n) >= rank {
				if math.IsInf(hi, 1) {
					// Open bucket: no upper edge to interpolate toward. The
					// mean bounds the tail from below at least as tightly as
					// the bucket's lower edge when mass sits out there.
					if mean > lo {
						return mean
					}
					return lo
				}
				if q == 1 {
					return hi // upper edge of the last occupied bucket
				}
				frac := (rank - float64(cum)) / float64(n)
				return lo + frac*(hi-lo)
			}
		}
		cum += n
		if i < len(h.bounds) {
			lo = h.bounds[i]
		}
	}
	return lo
}

// CheckName reports whether name is a well-formed metric name (a
// Prometheus identifier with an optional {label="value",...} suffix);
// a non-nil result is always a *NameError.
func CheckName(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	return nil
}

// SetExemplarCapacity bounds the anomalous-trace exemplar store at n
// pins (n <= 0 keeps the default of 128). Call before traffic: shrink
// does not drop already-pinned entries retroactively.
func (r *Recorder) SetExemplarCapacity(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.ex.mu.Lock()
	r.ex.cap = n
	r.ex.mu.Unlock()
}

// EvictedExemplars returns the number of pins dropped to the capacity
// bound.
func (r *Recorder) EvictedExemplars() int64 {
	if r == nil {
		return 0
	}
	return r.ex.evicted.Value()
}

// Started returns the number of traces started.
func (r *Recorder) Started() int64 { return r.started.Value() }

// Overflowed returns the number of traces that could not claim a ring
// slot (every slot was in flight) and were recorded detached — they
// never appear in Snapshot.
func (r *Recorder) Overflowed() int64 { return r.overflow.Value() }

// Begin returns the trace's start time (zero for a nil trace).
func (tr *Trace) Begin() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return tr.start
}
