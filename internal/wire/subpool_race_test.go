//go:build race

package wire

import (
	"math"
	"testing"
)

// TestReleasedSubReplyIsPoisoned: under the race detector a released
// record reads NaN across its float backing and out-of-range status and
// kind until the pool hands it out again, cleared; releasing it twice
// panics.
func TestReleasedSubReplyIsPoisoned(t *testing.T) {
	rep := NewSubReply(KindAgg, false)
	res := SizeAgg(rep, 4)
	for i := range res.Sum {
		res.Sum[i], res.CntVar[i] = 1, 2
	}
	ReleaseSubReply(rep)
	if rep.Status != poisonStatus || rep.Kind != poisonKind {
		t.Fatalf("released record reads status %d kind %d", rep.Status, rep.Kind)
	}
	for _, v := range append(res.Sum, res.CntVar...) {
		if !math.IsNaN(v) {
			t.Fatalf("released record's arrays read %v, want NaN", res)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second release did not panic")
			}
		}()
		ReleaseSubReply(rep)
	}()
	rec := recordOf(rep)
	take(rec)
	if rec.rep.Status != StatusOK || rec.rep.Kind != 0 || rec.rep.FrameLen != 0 || rec.rep.Agg != nil {
		t.Fatalf("a taken record is not cleared: %+v", rec.rep)
	}
}
