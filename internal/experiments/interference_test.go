package experiments

import (
	"testing"

	"accuracytrader/internal/stats"
)

func TestTraceAtPiecewise(t *testing.T) {
	tr := &slowdownTrace{times: []float64{0, 10, 20}, slow: []float64{1, 2, 1.5}}
	cases := []struct{ t, want float64 }{
		{-5, 1}, {0, 1}, {9.99, 1}, {10, 2}, {15, 2}, {20, 1.5}, {100, 1.5},
	}
	for _, c := range cases {
		if got := tr.at(c.t); got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTraceAtEmpty(t *testing.T) {
	tr := &slowdownTrace{}
	if tr.at(5) != 1 {
		t.Fatal("empty trace should be 1")
	}
}

func TestTraceMean(t *testing.T) {
	tr := &slowdownTrace{times: []float64{0, 10}, slow: []float64{1, 3}}
	if got := tr.mean(20); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := tr.mean(10); got != 1 {
		t.Fatalf("Mean(10) = %v", got)
	}
}

func TestGenerateBounds(t *testing.T) {
	rng := stats.NewRNG(1)
	tr := generateSlowdown(rng, 60000)
	for _, s := range tr.slow {
		if s < 1 || s > maxSlowdown {
			t.Fatalf("slowdown %v out of bounds", s)
		}
	}
	for i := 1; i < len(tr.times); i++ {
		if tr.times[i] <= tr.times[i-1] {
			t.Fatalf("times not increasing at %d", i)
		}
	}
	if tr.times[0] != 0 {
		t.Fatalf("trace must start at 0, got %v", tr.times[0])
	}
}

func TestGenerateProducesVariance(t *testing.T) {
	rng := stats.NewRNG(2)
	tr := generateSlowdown(rng, 600000)
	// A 10-minute trace should contain both idle (1.0) and slowed
	// segments.
	sawIdle, sawBusy := false, false
	for _, s := range tr.slow {
		if s == 1 {
			sawIdle = true
		}
		if s > 1.3 {
			sawBusy = true
		}
	}
	if !sawIdle || !sawBusy {
		t.Fatalf("trace lacks variance: idle=%v busy=%v (%d segments)", sawIdle, sawBusy, len(tr.slow))
	}
	m := tr.mean(600000)
	if m < 1.05 || m > 3 {
		t.Fatalf("mean slowdown %v implausible for the calibrated intensity", m)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generateSlowdown(stats.NewRNG(3), 60000)
	b := generateSlowdown(stats.NewRNG(3), 60000)
	if len(a.times) != len(b.times) {
		t.Fatal("not deterministic")
	}
	for i := range a.times {
		if a.times[i] != b.times[i] || a.slow[i] != b.slow[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestGenerateNodesIndependent(t *testing.T) {
	slowdown := slowdownFunc(4, 4, 60000)
	// Different nodes should have different busy patterns.
	same := 0
	for i := 0; i < 100; i++ {
		tm := float64(i) * 600
		if slowdown(0, tm) == slowdown(1, tm) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("node traces identical")
	}
}

// mean returns the time-weighted mean slowdown over [0, horizon].
func (tr *slowdownTrace) mean(horizon float64) float64 {
	if len(tr.times) == 0 || horizon <= 0 {
		return 1
	}
	total := 0.0
	for i := range tr.times {
		start := tr.times[i]
		if start >= horizon {
			break
		}
		end := horizon
		if i+1 < len(tr.times) && tr.times[i+1] < horizon {
			end = tr.times[i+1]
		}
		total += (end - start) * tr.slow[i]
	}
	return total / horizon
}
