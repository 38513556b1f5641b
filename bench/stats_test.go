package main

import (
	"math"
	"reflect"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileRefusesThinTails(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1100, 0.99, true, 1089}, // 11 samples above
		{1000, 0.99, true, 990},  // exactly 10 above
		{999, 0.99, false, 989},  // 9 above: refused, clamped to 10 above
		{110, 0.10, true, 11},    // 10 samples below
		{100, 0.10, false, 11},   // 9 below: refused, clamped to 10 below
		{21, 0.5, true, 11},      // 10 each side
		{20, 0.5, false, 11},     // 9 below
		{5, 0.99, false, 3},      // tiny: the middle
	}
	for _, c := range cases {
		got, ok := quantile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("quantile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if v, ok := quantile(nil, 0.5); ok || !math.IsNaN(v) {
		t.Errorf("empty input: got %g, %v", v, ok)
	}
}

func TestMedianOverSegments(t *testing.T) {
	// Per-segment medians are 11, 111, 211; one wild segment cannot
	// move the median over segments.
	segs := [][]float64{seq(21), nil, seq(21), seq(21)}
	for i := range segs[2] {
		segs[2][i] += 100
	}
	for i := range segs[3] {
		segs[3][i] += 200
	}
	got, ok := medianOverSegments(segs, 0.5)
	if !ok || got != 111 {
		t.Fatalf("medianOverSegments = %g, %v; want 111, true", got, ok)
	}
	if _, ok := medianOverSegments([][]float64{seq(21), seq(5)}, 0.5); ok {
		t.Fatal("a segment with 5 samples must refuse its median")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of an even count = %g, want 2.5", got)
	}
}

func TestTailChunks(t *testing.T) {
	segs := make([][]float64, segments)
	for i := range segs {
		segs[i] = seq(420) // 4200 reads: three chunks of 1400
	}
	chunks := tailChunks(segs)
	if len(chunks) != 3 || len(chunks[0]) != 1400 {
		t.Fatalf("got %d chunks of %d, want 3 of 1400", len(chunks), len(chunks[0]))
	}
	if _, ok := medianOverSegments(chunks, 0.99); !ok {
		t.Fatal("each chunk must support its p99")
	}
	if n := len(tailChunks([][]float64{seq(50)})); n != 1 {
		t.Fatalf("a short run keeps one chunk, got %d", n)
	}
}

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := poissonSchedule(7, 500, 100), poissonSchedule(7, 500, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := poissonSchedule(8, 500, 100)
	if len(c) != len(a) || reflect.DeepEqual(a, c) {
		t.Fatal("another seed must give another schedule of the same length")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	// 500 arrivals at 100/s take about 5 s.
	if end := a[len(a)-1].Seconds(); end < 4 || end > 6 {
		t.Fatalf("500 arrivals at 100/s ended at %.2fs", end)
	}
}

func TestOpSequenceCountsDependOnIndexOnly(t *testing.T) {
	mix := opMix{ingestEvery: 20, publishEvery: 500, compactEvery: 5000}
	a, b := opSequence(3, 12000, 256, 1.1, mix), opSequence(3, 12000, 256, 1.1, mix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op sequences")
	}
	c := opSequence(4, 12000, 256, 1.1, mix)
	tally := func(ops []op) (kinds [4]int, classes [3]int) {
		for _, o := range ops {
			kinds[o.kind]++
			if o.kind == opRead {
				classes[o.class]++
			}
		}
		return
	}
	ka, ca := tally(a)
	kc, cc := tally(c)
	if ka != kc || ca != cc {
		t.Fatalf("counts differ between seeds: %v %v vs %v %v", ka, ca, kc, cc)
	}
	if ka[opCompact] != 2 || ka[opPublish] != 22 || ka[opIngest] != 576 {
		t.Fatalf("write counts %v", ka)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("another seed must draw other queries")
	}
	for i := range a {
		if a[i].kind != c[i].kind || a[i].class != c[i].class {
			t.Fatalf("op %d: kind or class depends on the seed", i)
		}
	}
	// 10% / 30% / 60% within rounding.
	reads := float64(ka[opRead])
	if math.Abs(float64(ca[classExact])/reads-0.1) > 0.001 || math.Abs(float64(ca[classBounded])/reads-0.3) > 0.001 {
		t.Fatalf("class mix %v of %v reads", ca, reads)
	}
	for _, o := range opSequence(5, 100, 16, 1, opMix{exactOnly: true}) {
		if o.kind != opRead || o.class != classExact {
			t.Fatalf("exactOnly produced %+v", o)
		}
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := iqrShare(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("iqrShare = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if got, want := iqrShare(seq(5)), 1.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("iqrShare = %g, want %g", got, want)
	}
}
