//go:build race

package cf

import (
	"math"
	"testing"

	"accuracytrader/internal/stats"
)

// TestReleasedEngineIsPoisoned: under the race detector a released
// engine's result and correlations read NaN until the pool hands it out
// again, a second Release panics, and a pooled engine serves its next
// request as a fresh one would.
func TestReleasedEngineIsPoisoned(t *testing.T) {
	rng := stats.NewRNG(72)
	m, _ := testMatrix(rng, 120, 30, 4, 0.4)
	c, err := BuildComponent(m, synCfg())
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(randomRatings(rng, 30), []int32{2, 7, 19})
	e := GetEngine(c, req)
	corr := e.ProcessSynopsis()
	res := e.Result()
	e.Release()
	for _, v := range append(append(append([]float64(nil), corr...), res.Num...), res.Den...) {
		if !math.IsNaN(v) {
			t.Fatalf("released engine reads %v, want NaN across its result %+v and correlations %v", v, res, corr)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Release did not panic")
			}
		}()
		e.Release()
	}()
	e.Reset(c, req)
	e.ProcessSynopsis()
	want := NewEngine(c, req)
	want.ProcessSynopsis()
	sameResult(t, e.Result(), want.Result(), "reused poisoned engine")
}
