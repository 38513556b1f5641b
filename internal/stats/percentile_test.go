package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileKnownValues(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {75, 7.75}, {10, 1.9},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("Percentile of empty slice should be NaN")
	}
}

func TestPercentileSingle(t *testing.T) {
	for _, p := range []float64{0, 50, 99.9, 100} {
		if got := Percentile([]float64{42}, p); got != 42 {
			t.Fatalf("Percentile single p=%v got %v", p, got)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{5, 1, 3}
	Percentile(vals, 50)
	if vals[0] != 5 || vals[1] != 1 || vals[2] != 3 {
		t.Fatalf("input mutated: %v", vals)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	r := NewRNG(21)
	f := func(n uint8) bool {
		m := int(n%100) + 2
		vals := make([]float64, m)
		for i := range vals {
			vals[i] = r.Float64() * 1000
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7.3 {
			v := Percentile(vals, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileWithinRangeProperty(t *testing.T) {
	r := NewRNG(22)
	f := func(n uint16) bool {
		m := int(n%500) + 1
		vals := make([]float64, m)
		for i := range vals {
			vals[i] = r.Norm(0, 100)
		}
		sorted := make([]float64, m)
		copy(sorted, vals)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 12.5, 50, 99, 99.9, 100} {
			v := Percentile(vals, p)
			if v < sorted[0] || v > sorted[m-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyRecorder(t *testing.T) {
	l := NewLatencyRecorder(16)
	for i := 1; i <= 1000; i++ {
		l.Record(float64(i))
	}
	if l.Count() != 1000 {
		t.Fatalf("Count = %d", l.Count())
	}
	if got := l.Percentile(99.9); math.Abs(got-999.001) > 0.01 {
		t.Fatalf("p99.9 = %v", got)
	}
	if got := l.Max(); got != 1000 {
		t.Fatalf("Max = %v", got)
	}
	if got := l.Mean(); math.Abs(got-500.5) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestLatencyRecorderRecordAfterQuery(t *testing.T) {
	l := NewLatencyRecorder(0)
	l.Record(10)
	_ = l.Percentile(50)
	l.Record(20) // must invalidate cached sort
	if got := l.Percentile(100); got != 20 {
		t.Fatalf("p100 after second record = %v", got)
	}
	if got := l.Max(); got != 20 {
		t.Fatalf("max after second record = %v", got)
	}
}

func TestLatencyRecorderMerge(t *testing.T) {
	a := NewLatencyRecorder(0)
	b := NewLatencyRecorder(0)
	a.Record(1)
	b.Record(3)
	a.Merge(b)
	if a.Count() != 2 || a.Max() != 3 {
		t.Fatalf("merge failed: count=%d max=%v", a.Count(), a.Max())
	}
}

func TestLatencyRecorderReset(t *testing.T) {
	l := NewLatencyRecorder(0)
	l.Record(5)
	l.Reset()
	if l.Count() != 0 {
		t.Fatalf("count after reset = %d", l.Count())
	}
	if !math.IsNaN(l.Max()) || !math.IsNaN(l.Mean()) {
		t.Fatal("stats after reset should be NaN")
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatal("empty summary should be NaN")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if math.Abs(s.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("var = %v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}
