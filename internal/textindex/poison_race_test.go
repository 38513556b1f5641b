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

// TestReleasedSearchScratchIsPoisoned: under the race detector the
// scoring state an exact search hands back reads document -1 and NaN
// across its selector's storage, the hits a caller read from, until the
// pool hands it out again; releasing it again panics; and a search that
// takes it from the pool again scores as fresh state does.
func TestReleasedSearchScratchIsPoisoned(t *testing.T) {
	c, _ := buildTopicComponent(t, stats.NewRNG(7), 200)
	q := c.Ix.ParseQuery("topic1word3 topic1word7 common5")
	sc := c.Ix.topK(q, 10)
	if sc == nil {
		t.Fatal("query matched nothing")
	}
	hits := sc.sel.Sorted()
	if len(hits) == 0 {
		t.Fatal("query selected no documents")
	}
	c.Ix.putScratch(sc)
	for _, h := range hits[:cap(hits)] {
		if h.ID != -1 || !math.IsNaN(h.Score) {
			t.Fatalf("released scratch's hit reads %+v, want document -1 and NaN", h)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second release of search scratch did not panic")
			}
		}()
		c.Ix.putScratch(sc)
	}()
	assertHitsBitEqual(t, c.Ix.Search(q, 10), naiveSearch(c.Ix, q, 10), "search over pooled state")
}
