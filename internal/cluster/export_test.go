package cluster

import "accuracytrader/internal/stats"

// TailLatency returns the p-th percentile component latency of requests
// arriving in [from, to) ms (rejected requests excluded).
func (r *Result) TailLatency(p, from, to float64) float64 {
	var lat []float64
	for i, a := range r.Arrivals {
		if a < from || a >= to || r.rejected(i) {
			continue
		}
		for _, op := range r.Ops[i] {
			lat = append(lat, op.LatencyMs)
		}
	}
	return stats.Percentile(lat, p)
}
