//go:build !race

package netsvc

import "accuracytrader/internal/textindex"

// putQuery hands parsed-query storage back to queryBufs; the next
// ParseQueryInto overwrites it.
func putQuery(q *textindex.Query) { queryBufs.Put(q) }

// release hands a CF query back to cfQueries, dropping its engine.
func (q *cfQuery) release() {
	q.Engine = nil
	cfQueries.Put(q)
}
