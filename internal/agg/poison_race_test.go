//go:build race

package agg

import (
	"math"
	"testing"
)

// TestReleasedEngineIsPoisoned: under the race detector a released
// engine's estimates and correlations read NaN until the pool hands it
// out again, a second Release panics, and a pooled engine serves its
// next query as a fresh one would.
func TestReleasedEngineIsPoisoned(t *testing.T) {
	c := buildTestComponent(t, 43, 8, 600)
	q := Query{Op: Sum, Lo: 0, Hi: math.Inf(1)}
	e := GetEngine(c, q, 0)
	corr := e.ProcessSynopsis()
	res := e.Result()
	e.Release()
	for _, a := range [][]float64{res.Sum, res.Cnt, res.SumVar, res.CntVar, corr} {
		for _, v := range a {
			if !math.IsNaN(v) {
				t.Fatalf("released engine reads %v, want NaN across its result %+v and correlations %v", v, res, corr)
			}
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
	e.Reset(c, q, 0)
	e.ProcessSynopsis()
	want := NewEngine(c, q, 0)
	want.ProcessSynopsis()
	got, exp := e.Result(), want.Result()
	for k := range exp.Sum {
		if math.Float64bits(got.Sum[k]) != math.Float64bits(exp.Sum[k]) || math.Float64bits(got.CntVar[k]) != math.Float64bits(exp.CntVar[k]) {
			t.Fatalf("key %d: reused poisoned engine reads (%v, %v), fresh (%v, %v)", k, got.Sum[k], got.CntVar[k], exp.Sum[k], exp.CntVar[k])
		}
	}
}
