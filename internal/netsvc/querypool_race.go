//go:build race

package netsvc

import (
	"math"

	"accuracytrader/internal/cf"
	"accuracytrader/internal/textindex"
)

// Under the race detector released query storage is poisoned until the
// pool hands it out again (as wire's sub-reply records are): every term
// of a Query's capacity reads -1, which no vocabulary assigns, and every
// rating of a cfQuery's capacity reads item -1 and score NaN. A
// sub-operation that reads its query after releasing it then scans for
// terms and items no request carries, where recycled storage would pass
// as another request's query. Releasing either twice panics: a Query
// whose first term is -1 is released, and so is a cfQuery that holds
// releasedEngine, which getCFQuery clears.

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
