//go:build race

package core

import "testing"

// TestReleasedRankBufferIsPoisoned: under the race detector released
// ranking storage reads -1 across its capacity, releasing it again
// panics, and a run that takes it from the pool again ranks as fresh
// storage does.
func TestReleasedRankBufferIsPoisoned(t *testing.T) {
	corr := []float64{0.2, 0.9, 0.5}
	buf := &[]int{}
	*buf = rankInto(*buf, corr)
	putRankBuf(buf)
	for _, id := range *buf {
		if id != -1 {
			t.Fatalf("released ranking buffer reads %v, want -1", *buf)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second release of a ranking buffer did not panic")
			}
		}()
		putRankBuf(buf)
	}()
	if got := rankInto(*buf, corr); got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("poisoned storage ranks %v, want [1 2 0]", got)
	}
	putRankBuf(new([]int)) // storage that never held a ranking
	e := &fakeEngine{corr: corr}
	Run(e, func(int) bool { return true }, 0)
	if p := e.processed; len(p) != 3 || p[0] != 1 || p[1] != 2 || p[2] != 0 {
		t.Fatalf("a run over pooled storage processed %v, want [1 2 0]", p)
	}
}
