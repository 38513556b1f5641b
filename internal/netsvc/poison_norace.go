//go:build !race

package netsvc

import (
	"sync"

	"accuracytrader/internal/textindex"
)

// putQuery hands parsed-query storage back to queryBufs; the next
// ParseQueryInto overwrites it.
func putQuery(q *textindex.Query) { queryBufs.Put(q) }

// release hands a CF query back to cfQueries, dropping its engine.
func (q *cfQuery) release() {
	q.Engine = nil
	cfQueries.Put(q)
}

// release zeroes a subop record, so the pool keeps no engine or account
// alive, and returns it to the pool.
func (s *subop) release() {
	*s = subop{cont: s.cont}
	subops.Put(s)
}

// putKeyBuf hands a canonical-key scratch buffer back to its pool; the
// next key is appended over it.
func putKeyBuf(pool *sync.Pool, bp *[]byte) { pool.Put(bp) }
