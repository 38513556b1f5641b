package workload

import "accuracytrader/internal/stats"

// HourArrivals generates arrivals for the window [fromHour, toHour) of
// the day (hours in the paper's 1-based numbering are fromHour=h-1,
// toHour=h) via inhomogeneous Poisson thinning. Returned times are in ms
// relative to the window start.
func (p DiurnalPattern) HourArrivals(rng *stats.RNG, fromHour, toHour float64) []float64 {
	const hourMs = 3600_000.0
	start := fromHour * hourMs
	end := toHour * hourMs
	// Thinning envelope: the max rate in the window.
	maxRate := 0.0
	for t := start; t < end; t += hourMs / 16 {
		if r := p.Rate(t); r > maxRate {
			maxRate = r
		}
	}
	if maxRate <= 0 {
		return nil
	}
	var out []float64
	t := start
	for {
		t += rng.Exp(maxRate / 1000)
		if t >= end {
			return out
		}
		if rng.Float64() < p.Rate(t)/maxRate {
			out = append(out, t-start)
		}
	}
}
