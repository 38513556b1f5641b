package experiments

import (
	"fmt"
	"math"
	"strings"

	"accuracytrader/internal/stats"
	"accuracytrader/internal/workload"
)

// HourFigures is the result of Figures 5 and 6: for each studied hour
// (9: increasing, 10: steady, 24: decreasing arrival rates), the
// per-minute arrival rate, per-minute p99.9 component latency of the
// three techniques, and per-minute accuracy losses of the approximate
// techniques.
type HourFigures struct {
	Hours   []int
	Windows []*SearchWindow
	Bins    int
}

// RunHourFigures simulates the paper's hours 9, 10 and 24 of the Sogou-
// like diurnal search workload (Figures 5-6).
func RunHourFigures(svc *SearchService) (*HourFigures, error) {
	sc := svc.Scale
	pattern := workload.SogouLikePattern(sc.SearchPeakRate)
	out := &HourFigures{Hours: []int{9, 10, 24}, Bins: 60}
	windowMs := sc.HourWindowSeconds * 1000
	for hi, hour := range out.Hours {
		seed := sc.Seed ^ uint64(hour)*0x6d2b
		rng := stats.NewRNG(seed)
		arrivals := windowArrivals(rng, pattern, hour, windowMs)
		w, err := RunSearchWindow(svc, arrivals, windowMs, seed^uint64(hi))
		if err != nil {
			return nil, err
		}
		out.Windows = append(out.Windows, w)
	}
	return out, nil
}

// Render prints both figures.
func (f *HourFigures) Render() string { return f.RenderFig5() + "\n" + f.RenderFig6() }

// RenderFig5 prints the 12 panels of Figure 5 as per-minute series
// (sub-sampled every 5 minutes for width).
func (f *HourFigures) RenderFig5() string {
	var b strings.Builder
	b.WriteString("FIGURE 5. Per-minute 99.9th percentile component latency (ms), search workloads\n")
	for i, hour := range f.Hours {
		w := f.Windows[i]
		fmt.Fprintf(&b, "\n--- Hour %d ---\n", hour)
		writeSeries(&b, "minute", sampleIdx(f.Bins))
		writeSeries(&b, "arrival rate (req/s)", sample(w.MinuteRate(f.Bins)))
		writeSeries(&b, "Basic p99.9", sample(w.MinuteTail(w.Basic, 99.9, f.Bins)))
		writeSeries(&b, "Reissue p99.9", sample(w.MinuteTail(w.Re, 99.9, f.Bins)))
		writeSeries(&b, "AccuracyTrader p99.9", sample(w.MinuteTail(w.AT, 99.9, f.Bins)))
	}
	return b.String()
}

// RenderFig6 prints Figure 6: per-minute accuracy losses for hours 9, 10
// and 24.
func (f *HourFigures) RenderFig6() string {
	var b strings.Builder
	b.WriteString("FIGURE 6. Per-minute accuracy losses (%), search workloads\n")
	for i, hour := range f.Hours {
		w := f.Windows[i]
		fmt.Fprintf(&b, "\n--- Hour %d ---\n", hour)
		writeSeries(&b, "minute", sampleIdx(f.Bins))
		writeSeries(&b, "Partial execution", sample(w.MinuteLoss("partial", f.Bins)))
		writeSeries(&b, "AccuracyTrader", sample(w.MinuteLoss("at", f.Bins)))
	}
	return b.String()
}

// DayFigures is the result of Figures 7 and 8: hourly mean arrival rates
// and, per hour of the day, the p99.9 component latency of the three
// techniques and the mean accuracy losses of the approximate techniques.
type DayFigures struct {
	HourRate    [24]float64
	BasicTail   [24]float64
	ReissueTail [24]float64
	ATTail      [24]float64
	PartialLoss [24]float64
	ATLoss      [24]float64
}

// RunDayFigures simulates all 24 hours of the diurnal search workload
// (Figures 7-8), one window per hour.
func RunDayFigures(svc *SearchService) (*DayFigures, error) {
	sc := svc.Scale
	pattern := workload.SogouLikePattern(sc.SearchPeakRate)
	out := &DayFigures{}
	windowMs := sc.DayWindowSeconds * 1000
	for hour := 1; hour <= 24; hour++ {
		seed := sc.Seed ^ uint64(hour)*0x8f1d
		rng := stats.NewRNG(seed)
		arrivals := windowArrivals(rng, pattern, hour, windowMs)
		w, err := RunSearchWindow(svc, arrivals, windowMs, seed)
		if err != nil {
			return nil, err
		}
		h := hour - 1
		out.HourRate[h] = pattern.MeanRate(float64(hour-1), float64(hour))
		out.BasicTail[h] = TailOverall(w.Basic, 99.9)
		out.ReissueTail[h] = TailOverall(w.Re, 99.9)
		out.ATTail[h] = TailOverall(w.AT, 99.9)
		out.PartialLoss[h] = w.MeanLoss("partial")
		out.ATLoss[h] = w.MeanLoss("at")
	}
	return out, nil
}

// Render prints both figures.
func (d *DayFigures) Render() string { return d.RenderFig7() + "\n" + d.RenderFig8() }

// RenderFig7 prints Figure 7: hourly arrival rates and tail latencies.
func (d *DayFigures) RenderFig7() string {
	var b strings.Builder
	b.WriteString("FIGURE 7. Hourly 99.9th percentile component latency (ms), 24-hour search workloads\n")
	writeSeries(&b, "hour", hourIdx())
	writeSeries(&b, "(a) arrival rate", d.HourRate[:])
	writeSeries(&b, "(b) Basic", d.BasicTail[:])
	writeSeries(&b, "(c) Reissue", d.ReissueTail[:])
	writeSeries(&b, "(d) AccuracyTrader", d.ATTail[:])
	return b.String()
}

// RenderFig8 prints Figure 8: hourly accuracy losses.
func (d *DayFigures) RenderFig8() string {
	var b strings.Builder
	b.WriteString("FIGURE 8. Hourly accuracy losses (%), 24-hour search workloads\n")
	writeSeries(&b, "hour", hourIdx())
	writeSeries(&b, "Partial execution", d.PartialLoss[:])
	writeSeries(&b, "AccuracyTrader", d.ATLoss[:])
	return b.String()
}

func hourIdx() []float64 {
	out := make([]float64, 24)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// sample keeps every 5th minute of a 60-bin series for printable width.
func sample(series []float64) []float64 {
	var out []float64
	for i := 0; i < len(series); i += 5 {
		out = append(out, series[i])
	}
	return out
}

func sampleIdx(bins int) []float64 {
	var out []float64
	for i := 0; i < bins; i += 5 {
		out = append(out, float64(i+1))
	}
	return out
}

func writeSeries(b *strings.Builder, name string, vals []float64) {
	fmt.Fprintf(b, "%-22s", name)
	for _, v := range vals {
		if math.IsNaN(v) {
			fmt.Fprintf(b, "%9s", "-")
		} else if v >= 100 {
			fmt.Fprintf(b, "%9.0f", v)
		} else {
			fmt.Fprintf(b, "%9.2f", v)
		}
	}
	b.WriteString("\n")
}
