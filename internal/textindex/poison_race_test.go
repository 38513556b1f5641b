//go:build race

package textindex

import (
	"math"
	"testing"

	"accuracytrader/internal/stats"
)

// TestReleasedEngineIsPoisoned: under the race detector a released
// engine's aggregated scores read NaN and its scored hits document -1
// until the pool hands it out again, a second Release panics, and a
// pooled engine serves its next query as a fresh one would.
func TestReleasedEngineIsPoisoned(t *testing.T) {
	c, _ := buildTopicComponent(t, stats.NewRNG(5), 200)
	q := c.Ix.ParseQuery("topic1word3 topic1word7 common5")
	e := GetEngine(c, q)
	scores := e.ProcessSynopsis()
	for g := range c.Aggs {
		e.ProcessSet(g)
	}
	hits := e.scored
	if len(hits) == 0 {
		t.Fatal("query scored no pages")
	}
	e.Release()
	for _, v := range scores {
		if !math.IsNaN(v) {
			t.Fatalf("released engine's aggregated scores read %v, want NaN", v)
		}
	}
	for _, h := range hits {
		if h.Doc != -1 || !math.IsNaN(h.Score) {
			t.Fatalf("released engine's hit reads %+v, want document -1 and NaN", h)
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
	e.Reset(c, q)
	e.ProcessSynopsis()
	got := e.TopK(10)
	want := NewEngine(c, q)
	want.ProcessSynopsis()
	for i, h := range want.TopK(10) {
		if got[i] != h {
			t.Fatalf("hit %d: reused poisoned engine reads %+v, fresh %+v", i, got[i], h)
		}
	}
}
