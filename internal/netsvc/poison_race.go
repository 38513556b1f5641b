//go:build race

package netsvc

import (
	"math"
	"sync"
	"time"

	"accuracytrader/internal/cf"
	"accuracytrader/internal/textindex"
)

// Under the race detector released pooled storage is poisoned until the
// pool hands it out again (as wire's sub-reply records are): every term
// of a Query's capacity reads -1, which no vocabulary assigns, and every
// rating of a cfQuery's capacity reads item -1 and score NaN. A
// sub-operation that reads its query after releasing it then scans for
// terms and items no request carries, where recycled storage would pass
// as another request's query. Releasing either twice panics: a Query
// whose first term is -1 is released, and so is a cfQuery that holds
// releasedEngine, which getCFQuery clears.
//
// The same holds for subops and the front's canonical-key buffers (a
// recycled compJob's request record is poisoned by its own Release, in
// wire). A released subop's
// deadline is releasedDeadline, long past, so a run still reading it
// stops improving at once and its metered engine is gone; a subop whose
// deadline is that one is released. A released canonical-key buffer
// reads poisonKeyByte across its capacity, which no key starts with (a
// key starts with its format version), so a key read after release hashes
// to a different entry; a buffer that starts with it is released.
var releasedDeadline = time.Unix(0, 0xEE)

const poisonKeyByte = 0xEE

func (s *subop) release() {
	if s.dl.Equal(releasedDeadline) {
		panic("netsvc: subop released twice")
	}
	*s = subop{cont: s.cont, dl: releasedDeadline}
	subops.Put(s)
}

func putKeyBuf(pool *sync.Pool, bp *[]byte) {
	b := *bp
	if len(b) > 0 && b[0] == poisonKeyByte {
		panic("netsvc: canonical-key buffer released twice")
	}
	if cap(b) == 0 {
		b = make([]byte, 1)
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonKeyByte
	}
	*bp = b
	pool.Put(bp)
}

var releasedEngine = new(cf.Engine)

func putQuery(q *textindex.Query) {
	if len(q.Terms) > 0 && q.Terms[0] == -1 {
		panic("netsvc: search query released twice")
	}
	if cap(q.Terms) == 0 {
		q.Terms = make([]int32, 1)
	}
	q.Terms = q.Terms[:cap(q.Terms)]
	for i := range q.Terms {
		q.Terms[i] = -1
	}
	queryBufs.Put(q)
}

func (q *cfQuery) release() {
	if q.Engine == releasedEngine {
		panic("netsvc: CF query released twice")
	}
	rs := q.ratings[:cap(q.ratings)]
	for i := range rs {
		rs[i] = cf.Rating{Item: -1, Score: math.NaN()}
	}
	q.Engine = releasedEngine
	cfQueries.Put(q)
}
