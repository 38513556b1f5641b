package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"accuracytrader/internal/stats"
)

// fakeEngine records the order in which sets are processed.
type fakeEngine struct {
	corr      []float64
	processed []int
}

func (f *fakeEngine) ProcessSynopsis() []float64 { return f.corr }
func (f *fakeEngine) ProcessSet(ag int)          { f.processed = append(f.processed, ag) }

func TestRankDescending(t *testing.T) {
	got := Rank([]float64{0.2, 0.9, 0.5, 0.9})
	want := []int{1, 3, 2, 0} // stable: id 1 before id 3 on tie
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", got, want)
		}
	}
}

func TestRankEmpty(t *testing.T) {
	if got := Rank(nil); len(got) != 0 {
		t.Fatalf("Rank(nil) = %v", got)
	}
}

func TestRunProcessesInCorrelationOrder(t *testing.T) {
	e := &fakeEngine{corr: []float64{0.1, 0.8, 0.4}}
	tr := Run(e, BudgetContinue(3), 0)
	want := []int{1, 2, 0}
	if tr.SetsProcessed != 3 {
		t.Fatalf("SetsProcessed = %d", tr.SetsProcessed)
	}
	for i := range want {
		if e.processed[i] != want[i] {
			t.Fatalf("order = %v, want %v", e.processed, want)
		}
	}
}

func TestRunHonorsBudget(t *testing.T) {
	e := &fakeEngine{corr: []float64{0.1, 0.8, 0.4, 0.6}}
	tr := Run(e, BudgetContinue(2), 0)
	if tr.SetsProcessed != 2 || len(e.processed) != 2 {
		t.Fatalf("budget violated: %v", e.processed)
	}
	if e.processed[0] != 1 || e.processed[1] != 3 {
		t.Fatalf("top-2 sets wrong: %v", e.processed)
	}
}

func TestRunHonorsIMax(t *testing.T) {
	e := &fakeEngine{corr: []float64{0.1, 0.8, 0.4, 0.6}}
	tr := Run(e, BudgetContinue(100), 3)
	if tr.SetsProcessed != 3 {
		t.Fatalf("imax violated: processed %d", tr.SetsProcessed)
	}
	// imax larger than the set count must not panic and processes all.
	e2 := &fakeEngine{corr: []float64{0.3, 0.1}}
	tr2 := Run(e2, BudgetContinue(100), 99)
	if tr2.SetsProcessed != 2 {
		t.Fatalf("processed %d of 2 sets", tr2.SetsProcessed)
	}
}

func TestRunZeroBudgetStillProducesInitialResult(t *testing.T) {
	// With no time for improvement, the synopsis-based initial result is
	// all that's produced — Algorithm 1 always returns a result.
	e := &fakeEngine{corr: []float64{0.5, 0.9}}
	tr := Run(e, BudgetContinue(0), 0)
	if tr.SetsProcessed != 0 || len(e.processed) != 0 {
		t.Fatalf("expected no sets processed, got %v", e.processed)
	}
}

// checkProcessingOrder holds the sets e processed to Algorithm 1's
// order: distinct ids in range (a prefix of a permutation), descending
// correlation, ties toward the lower id.
func checkProcessingOrder(e *fakeEngine) error {
	seen := make([]bool, len(e.corr))
	for i, id := range e.processed {
		if id < 0 || id >= len(e.corr) || seen[id] {
			return fmt.Errorf("processed %v: not a prefix of a permutation of %d ids", e.processed, len(e.corr))
		}
		seen[id] = true
		if i == 0 {
			continue
		}
		prev, cur := e.corr[e.processed[i-1]], e.corr[id]
		if prev < cur || prev == cur && e.processed[i-1] > id {
			return fmt.Errorf("processed %v over correlations %v: step %d out of order", e.processed, e.corr, i)
		}
	}
	return nil
}

func TestRunRankingIsPermutationProperty(t *testing.T) {
	rng := stats.NewRNG(1)
	f := func(seed uint32, n, budget uint8) bool {
		r := rng.Split(uint64(seed))
		m := int(n%50) + 1
		corr := make([]float64, m)
		for i := range corr {
			corr[i] = float64(r.Intn(8)) / 8 // coarse values: plenty of ties
		}
		k := int(budget) % (m + 1)
		e := &fakeEngine{corr: corr}
		tr := Run(e, BudgetContinue(k), 0)
		if tr.SetsProcessed != k || len(e.processed) != k {
			return false
		}
		if err := checkProcessingOrder(e); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRunDoesNotAllocate: once the pool holds a ranking buffer long
// enough, a run costs nothing beyond what the engine and the
// continuation themselves allocate.
func TestRunDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops at random)")
	}
	corr := make([]float64, 64)
	for i := range corr {
		corr[i] = float64((i * 37) % 11)
	}
	e := &fakeEngine{corr: corr, processed: make([]int, 0, len(corr))}
	cont := BudgetContinue(len(corr) / 2)
	// AllocsPerRun's warm-up invocation primes the pool.
	if n := testing.AllocsPerRun(100, func() {
		e.processed = e.processed[:0]
		Run(e, cont, 0)
	}); n != 0 {
		t.Fatalf("Run allocates %.1f times per run, want 0", n)
	}
	if err := checkProcessingOrder(e); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineContinueStops(t *testing.T) {
	c := &manualClock{}
	cont := DeadlineContinue(c, 10*time.Millisecond)
	if !cont(0) {
		t.Fatal("should continue before deadline")
	}
	c.t = 11 * time.Millisecond
	if cont(1) {
		t.Fatal("should stop after deadline")
	}
}

type manualClock struct{ t time.Duration }

func (m *manualClock) Elapsed() time.Duration { return m.t }

func TestWallClockAdvances(t *testing.T) {
	c := NewWallClock()
	a := c.Elapsed()
	time.Sleep(2 * time.Millisecond)
	if b := c.Elapsed(); b <= a {
		t.Fatalf("wall clock did not advance: %v then %v", a, b)
	}
}

func TestRunWithDeadlineProcessesSomething(t *testing.T) {
	e := &fakeEngine{corr: []float64{0.4, 0.2, 0.9}}
	tr := RunWithDeadline(e, 50*time.Millisecond, 0)
	if tr.SetsProcessed == 0 {
		t.Fatal("generous deadline processed no sets")
	}
}
