//go:build race

package wire

import (
	"math"
	"strings"
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

// TestReleasedRequestRecordIsPoisoned: under the race detector a
// released request record reads item -1 and score NaN across its
// ratings' backing, -1 across its targets', out-of-range kind and SLO,
// and poisoned bytes under an inline tenant or query a holder kept;
// releasing it twice panics; and the record decodes its next request as
// a fresh one.
func TestReleasedRequestRecordIsPoisoned(t *testing.T) {
	var rec RequestRecord
	cfFrame := AppendRequestFrame(nil, &Request{ID: 1, Kind: KindCF, Subset: 2, SLO: SLOExact, Tenant: "acme",
		CF: &CFRequest{Ratings: []Rating{{Item: 3, Score: 4}, {Item: 1, Score: 2}}, Targets: []int32{5, 6, 7}}})
	req, err := rec.Decode(cfFrame[4:])
	if err != nil {
		t.Fatal(err)
	}
	ratings, targets, tenant := req.CF.Ratings, req.CF.Targets, req.Tenant
	rec.Release()
	if req.Kind != poisonKind || req.SLO != poisonByte {
		t.Fatalf("released request reads kind %d SLO %d", req.Kind, req.SLO)
	}
	for _, r := range ratings {
		if r.Item != -1 || !math.IsNaN(r.Score) {
			t.Fatalf("released request's ratings read %v, want item -1 and NaN", ratings)
		}
	}
	for _, x := range targets {
		if x != -1 {
			t.Fatalf("released request's targets read %v, want -1", targets)
		}
	}
	if tenant != strings.Repeat("\xee", len("acme")) {
		t.Fatalf("a tenant kept past release reads %q", tenant)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second release did not panic")
			}
		}()
		rec.Release()
	}()
	searchFrame := AppendRequestFrame(nil, &Request{ID: 2, Kind: KindSearch, Subset: 1, Level: NoLevel,
		Search: &SearchRequest{Query: "alpha beta", K: 3}})
	req, err = rec.Decode(searchFrame[4:])
	if err != nil {
		t.Fatal(err)
	}
	want, _ := DecodeRequest(searchFrame[4:])
	if *req.Search != *want.Search || req.Kind != KindSearch || req.SLO != 0 || req.CF != nil || req.FrameLen != want.FrameLen {
		t.Fatalf("a record decoded after release reads %+v %+v, want %+v %+v", req, req.Search, want, want.Search)
	}
	rec.Release()
}
