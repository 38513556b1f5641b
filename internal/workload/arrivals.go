package workload

import (
	"accuracytrader/internal/stats"
)

// PoissonArrivals generates an open-loop arrival sequence at a fixed rate
// (requests/second) over [0, horizonMs), as used by the Table 1-2 runs.
func PoissonArrivals(rng *stats.RNG, ratePerSec, horizonMs float64) []float64 {
	if ratePerSec <= 0 {
		return nil
	}
	var out []float64
	t := 0.0
	for {
		t += rng.Exp(ratePerSec / 1000)
		if t >= horizonMs {
			return out
		}
		out = append(out, t)
	}
}

// DiurnalPattern is a 24-hour arrival-rate profile: HourlyRate[h] is the
// mean rate (requests/second) during hour h+1 (hour 1 = midnight-1am,
// matching the paper's hour numbering). Rates are linearly interpolated
// between hour midpoints so within-hour trends (hour 9 increasing, hour
// 10 steady, hour 24 decreasing) are reproduced.
type DiurnalPattern struct {
	HourlyRate [24]float64
}

// sogouShape is the relative 24-hour load shape of a Chinese web search
// engine query log (paper Figures 5/7: night trough, morning ramp through
// hour 9, high steady daytime load, evening peak, decline into hour 24).
var sogouShape = [24]float64{
	0.52, 0.33, 0.20, 0.14, 0.12, 0.15, 0.26, 0.46,
	0.68, 0.86, 0.92, 0.90, 0.84, 0.88, 0.93, 0.96,
	0.93, 0.86, 0.82, 0.90, 1.00, 0.94, 0.82, 0.64,
}

// SogouLikePattern returns the diurnal pattern scaled so the busiest hour
// runs at peakRate requests/second.
func SogouLikePattern(peakRate float64) DiurnalPattern {
	var p DiurnalPattern
	for i, s := range sogouShape {
		p.HourlyRate[i] = s * peakRate
	}
	return p
}

// Rate returns the instantaneous arrival rate (req/s) at time tMs since
// midnight, interpolating linearly between hour midpoints and wrapping
// around midnight.
func (p DiurnalPattern) Rate(tMs float64) float64 {
	const hourMs = 3600_000.0
	day := 24 * hourMs
	t := tMs
	for t < 0 {
		t += day
	}
	for t >= day {
		t -= day
	}
	// Hour midpoints anchor the interpolation.
	h := t / hourMs // in [0,24)
	i := int(h - 0.5)
	frac := h - 0.5 - float64(i)
	if h < 0.5 {
		i = 23
		frac = h + 0.5
	}
	j := (i + 1) % 24
	return p.HourlyRate[i]*(1-frac) + p.HourlyRate[j]*frac
}

// MeanRate returns the average rate (req/s) over [fromHour, toHour).
func (p DiurnalPattern) MeanRate(fromHour, toHour float64) float64 {
	const hourMs = 3600_000.0
	sum, n := 0.0, 0
	for t := fromHour * hourMs; t < toHour*hourMs; t += hourMs / 64 {
		sum += p.Rate(t)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
