package experiments

import (
	"math"
	"testing"
)

func TestSkill(t *testing.T) {
	if got := skill(0.5, 1.0); got != 0.5 {
		t.Fatalf("Skill = %v", got)
	}
	if got := skill(0, 1); got != 1 {
		t.Fatalf("perfect skill = %v", got)
	}
	if got := skill(2, 1); got != 0 {
		t.Fatal("worse than baseline must floor at 0")
	}
	if got := skill(0.5, 0); got != 0 {
		t.Fatal("zero baseline must give 0")
	}
	if got := skill(math.NaN(), 1); got != 0 {
		t.Fatal("NaN RMSE must give 0")
	}
}

func TestLossPct(t *testing.T) {
	if got := lossPct(0.8, 0.6); math.Abs(got-25) > 1e-9 {
		t.Fatalf("LossPct = %v", got)
	}
	if got := lossPct(0.8, 0.9); got != 0 {
		t.Fatal("improvement must clamp to 0")
	}
	if got := lossPct(0.8, -5); got != 100 {
		t.Fatal("loss must clamp to 100")
	}
	if got := lossPct(0, 0.5); got != 0 {
		t.Fatal("zero exact accuracy must give 0")
	}
}

func TestOverlapLossPct(t *testing.T) {
	if got := overlapLossPct(0.7); math.Abs(got-30) > 1e-9 {
		t.Fatalf("OverlapLossPct = %v", got)
	}
	if got := overlapLossPct(1); got != 0 {
		t.Fatalf("full overlap loss = %v", got)
	}
}

func TestSeriesBinning(t *testing.T) {
	s := newTimeSeries(1000, 3)
	s.Add(0, 10)
	s.Add(999, 20)
	s.Add(1000, 30)
	s.Add(2500, 40)
	s.Add(5000, 99) // out of range: dropped
	s.Add(-1, 99)   // out of range: dropped
	means, maxes := s.MeanSeries(), s.PercentileSeries(100)
	if len(means) != 3 || len(maxes) != 3 {
		t.Fatalf("bins = %d/%d", len(means), len(maxes))
	}
	if means[0] != 15 || means[1] != 30 || means[2] != 40 {
		t.Fatalf("means = %v", means)
	}
	if maxes[0] != 20 || maxes[1] != 30 || maxes[2] != 40 {
		t.Fatalf("P100 = %v", maxes)
	}
}

func TestSeriesEmptyBin(t *testing.T) {
	s := newTimeSeries(100, 2)
	if !math.IsNaN(s.MeanSeries()[0]) || !math.IsNaN(s.PercentileSeries(50)[1]) {
		t.Fatal("empty bins must be NaN")
	}
}

func TestSeriesSeries(t *testing.T) {
	s := newTimeSeries(10, 2)
	s.Add(5, 1)
	s.Add(6, 3)
	s.Add(15, 5)
	means := s.MeanSeries()
	if means[0] != 2 || means[1] != 5 {
		t.Fatalf("means = %v", means)
	}
	p := s.PercentileSeries(50)
	if p[0] != 2 || p[1] != 5 {
		t.Fatalf("medians = %v", p)
	}
}

func TestSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTimeSeries(0, 5)
}
