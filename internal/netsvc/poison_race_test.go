//go:build race

package netsvc

import (
	"math"
	"sync"
	"testing"
	"time"

	"accuracytrader/internal/cf"
	"accuracytrader/internal/textindex"
	"accuracytrader/internal/wire"
)

// mustPanic fails t unless release panics.
func mustPanic(t *testing.T, what string, release func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("second release of a %s did not panic", what)
		}
	}()
	release()
}

// TestReleasedQueriesArePoisoned: under the race detector a released
// search query reads term -1 across its capacity, a released CF query
// reads item -1 and score NaN across its ratings' capacity, releasing
// either twice panics, and storage taken from the pool again parses and
// converts a request as fresh storage does.
func TestReleasedQueriesArePoisoned(t *testing.T) {
	ix := textindex.NewIndex()
	ix.Add("alpha beta gamma")
	q := parseQuery(ix, "alpha gamma beta")
	putQuery(q)
	if len(q.Terms) != cap(q.Terms) {
		t.Fatalf("released query spans %d of its %d terms", len(q.Terms), cap(q.Terms))
	}
	for _, term := range q.Terms {
		if term != -1 {
			t.Fatalf("released query reads terms %v, want -1", q.Terms)
		}
	}
	mustPanic(t, "search query", func() { putQuery(q) })
	// Whatever storage the pool hands out next, poisoned or new, parses
	// as fresh storage does and releases once more.
	q = parseQuery(ix, "beta")
	if want := ix.ParseQuery("beta"); len(q.Terms) != 1 || q.Terms[0] != want.Terms[0] {
		t.Fatalf("reparsed query reads %v, want %v", q.Terms, want.Terms)
	}
	putQuery(q)
	putQuery(new(textindex.Query)) // storage that never held a term

	req := &wire.Request{CF: &wire.CFRequest{Ratings: []wire.Rating{{Item: 3, Score: 4}, {Item: 1, Score: 2}}}}
	cq, creq := getCFQuery(req)
	cq.release()
	for _, r := range cq.ratings[:cap(cq.ratings)] {
		if r.Item != -1 || !math.IsNaN(r.Score) {
			t.Fatalf("released CF query reads %v, want item -1 and NaN", cq.ratings[:cap(cq.ratings)])
		}
	}
	if creq.Ratings[0].Item != -1 {
		t.Fatalf("the request over a released CF query reads %v", creq.Ratings)
	}
	mustPanic(t, "CF query", cq.release)
	cq, creq = getCFQuery(req)
	if len(creq.Ratings) != 2 || creq.Ratings[0] != (cf.Rating{Item: 1, Score: 2}) {
		t.Fatalf("a CF query taken again converts the request to %v", creq.Ratings)
	}
	cq.release()
}

// TestReleasedSubopAndKeyBufferArePoisoned: under the race detector a
// released subop's budget check reads a deadline long past, so a run
// still holding it stops improving, and its metered engine is gone; a
// released canonical-key buffer reads poisonKeyByte across its capacity;
// releasing either twice panics; and a subop taken again checks its own
// deadline.
func TestReleasedSubopAndKeyBufferArePoisoned(t *testing.T) {
	s := getSubop(time.Now().Add(time.Hour))
	cont := s.cont
	if !cont(0) {
		t.Fatal("a live subop's budget check stops the run")
	}
	s.metered.unit = time.Millisecond
	s.release()
	if cont(0) || s.metered.unit != 0 {
		t.Fatalf("a released subop's budget check reads %v, its metered unit %v", s.dl, s.metered.unit)
	}
	mustPanic(t, "subop", s.release)
	s = getSubop(time.Time{})
	if !s.cont(0) {
		t.Fatal("a subop taken again checks the released deadline")
	}
	s.release()

	var pool sync.Pool
	bp := &[]byte{1, 2, 3}
	putKeyBuf(&pool, bp)
	for _, b := range *bp {
		if b != poisonKeyByte {
			t.Fatalf("released key buffer reads %v", *bp)
		}
	}
	mustPanic(t, "canonical-key buffer", func() { putKeyBuf(&pool, bp) })
	putKeyBuf(&pool, new([]byte)) // a buffer that never held a key
}
