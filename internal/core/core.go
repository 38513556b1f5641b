package core

import (
	"slices"
	"sync"
	"time"

	"accuracytrader/internal/poison"
)

// Engine is the application-specific side of Algorithm 1. Implementations
// exist for the CF recommender (internal/cf), the web search engine
// (internal/textindex) and approximate aggregation (internal/agg).
type Engine interface {
	// ProcessSynopsis computes the initial approximate result for the
	// request (Algorithm 1 line 1) and returns, for every aggregated data
	// point, its estimated correlation to the request's result accuracy.
	// The returned result is improved in place by subsequent ProcessSet
	// calls. Implementations may return an internal buffer: the slice is
	// only valid until the engine is reset or released, and Run does not
	// retain it.
	ProcessSynopsis() (correlations []float64)
	// ProcessSet improves the current result with the original data points
	// of the set belonging to aggregated point ag (Algorithm 1 line 7).
	ProcessSet(ag int)
}

// Continue is consulted before each improvement step; processing stops as
// soon as it returns false. setsDone counts the sets already processed.
type Continue func(setsDone int) bool

// Trace records what a Run actually did, for experiments and debugging.
type Trace struct {
	SetsProcessed int // sets improved before stopping
}

// rankBufs recycles Run's ranking storage across runs, so a run whose
// ranking fits a buffer the pool already holds allocates nothing.
var rankBufs = sync.Pool{New: func() any { return new([]int) }}

// Run executes Algorithm 1: process the synopsis, rank the aggregated
// points by descending correlation, then improve with each ranked member
// set while cont allows and fewer than imax sets have been processed.
// imax <= 0 means "no cap" (all sets are eligible).
func Run(e Engine, cont Continue, imax int) Trace {
	corr := e.ProcessSynopsis()
	buf := rankBufs.Get().(*[]int)
	ranking := rankInto(*buf, corr)
	if imax <= 0 || imax > len(ranking) {
		imax = len(ranking)
	}
	done := 0
	for _, ag := range ranking[:imax] {
		if !cont(done) {
			break
		}
		e.ProcessSet(ag)
		done++
	}
	*buf = ranking
	putRankBuf(buf)
	return Trace{SetsProcessed: done}
}

// putRankBuf hands ranking storage back to rankBufs. Under the race
// detector it reads -1 across its capacity until the pool hands it out
// again, an id no aggregated point has, so a run still ranking through
// it fails on its next set; a buffer that starts with -1 is released,
// and releasing it again panics.
func putRankBuf(buf *[]int) {
	if poison.Enabled {
		b := *buf
		poison.Released(len(b) > 0 && b[0] == -1, "core: ranking buffer")
		if cap(b) == 0 {
			b = make([]int, 1)
		}
		*buf = b[:cap(b)]
		poison.Fill(*buf, -1)
	}
	rankBufs.Put(buf)
}

// Rank returns aggregated point ids sorted by descending correlation
// (Algorithm 1 line 2). Ties break toward the lower id so ranking is
// deterministic.
func Rank(corr []float64) []int { return rankInto(nil, corr) }

// rankInto is Rank writing into ids' storage, grown only when too short.
// The comparator orders by corr[a] > corr[b] and nothing else, so NaN
// compares equal to everything and the stable sort makes the same moves
// as sort.SliceStable under that predicate (FuzzRankDifferential holds
// it to one); cmp.Compare, which orders NaN first, would rank otherwise.
func rankInto(ids []int, corr []float64) []int {
	ids = slices.Grow(ids[:0], len(corr))[:len(corr)]
	for i := range ids {
		ids[i] = i
	}
	slices.SortStableFunc(ids, func(a, b int) int {
		switch {
		case corr[a] > corr[b]:
			return -1
		case corr[b] > corr[a]:
			return 1
		}
		return 0
	})
	return ids
}

// Clock abstracts "elapsed service time since the request arrived"
// (Algorithm 1's l_ela). The wall-clock implementation is used by the live
// runtime; the simulator provides virtual clocks.
type Clock interface {
	Elapsed() time.Duration
}

// WallClock measures elapsed time from a fixed start using the runtime
// monotonic clock.
type WallClock struct{ start time.Time }

// NewWallClock returns a clock whose Elapsed counts from now.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Elapsed returns the wall time since the clock was created.
func (w *WallClock) Elapsed() time.Duration { return time.Since(w.start) }

// DeadlineContinue adapts a Clock and a deadline (l_spe) into a Continue:
// improvement proceeds while elapsed time stays below the deadline.
func DeadlineContinue(c Clock, deadline time.Duration) Continue {
	return func(int) bool { return c.Elapsed() < deadline }
}

// BudgetContinue returns a Continue that allows exactly k improvement
// steps. The simulator uses it after converting a time budget into a set
// count with its cost model.
func BudgetContinue(k int) Continue {
	return func(done int) bool { return done < k }
}

// RunWithDeadline is the convenience form used by live services: run
// Algorithm 1 against a wall-clock deadline.
func RunWithDeadline(e Engine, deadline time.Duration, imax int) Trace {
	return Run(e, DeadlineContinue(NewWallClock(), deadline), imax)
}
