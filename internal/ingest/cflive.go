package ingest

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"accuracytrader/internal/cf"
	"accuracytrader/internal/synopsis"
)

// deltaScorerPool recycles the exact-kernel scorers Exact and FoldDelta
// use so the live exact path allocates nothing once warm.
var deltaScorerPool = sync.Pool{New: func() any { return new(cf.DeltaScorer) }}

// CFSnapshot is one epoch of a live CF shard: a frozen base component
// plus the users appended since the last compaction, scored exactly.
type CFSnapshot struct {
	comp       *cf.Component
	deltaUsers [][]cf.Rating
	deltaMeans []float64
	nItems     int
}

// Base returns the frozen base component, nil before the first
// compaction.
func (s *CFSnapshot) Base() *cf.Component { return s.comp }

// Users returns the users visible at this epoch (base + delta).
func (s *CFSnapshot) Users() int {
	n := len(s.deltaUsers)
	if s.comp != nil {
		n += s.comp.M.NumUsers()
	}
	return n
}

// DeltaUsers returns the users not yet folded into the base.
func (s *CFSnapshot) DeltaUsers() int { return len(s.deltaUsers) }

// FoldDelta adds every delta user's exact contribution into res with
// the one CF kernel (cf.DeltaScorer), in append order — the same order
// ExactResultInto scans them after a rebuild, so the exact path stays
// bit-identical to rebuilding the matrix with the delta appended.
// Returns res for chaining.
func (s *CFSnapshot) FoldDelta(res cf.Result, req cf.Request) cf.Result {
	if len(s.deltaUsers) > 0 {
		s.fold(res, req, false)
	}
	return res
}

// Exact computes the exact partial result over every visible user —
// base scan, then delta fold, under one binding of the request —
// accumulating into res's reused buffers; it returns the (possibly
// re-anchored) result.
func (s *CFSnapshot) Exact(res cf.Result, req cf.Request) cf.Result {
	res = res.Reset(len(req.Targets))
	s.fold(res, req, true)
	return res
}

// fold binds one pooled scorer to req and accumulates the base users
// (when asked for, and once there is a base) and then the delta users
// into res.
func (s *CFSnapshot) fold(res cf.Result, req cf.Request, base bool) {
	d := deltaScorerPool.Get().(*cf.DeltaScorer)
	d.Bind(s.nItems, req.Targets)
	if base && s.comp != nil {
		d.AddMatrix(res, req.Ratings, s.comp.M)
	}
	for i, rs := range s.deltaUsers {
		d.Add(res, req.Ratings, rs, s.deltaMeans[i])
	}
	deltaScorerPool.Put(d)
}

// CFStats counts a live CF shard's ingest activity.
type CFStats struct {
	Appends     uint64
	Publishes   uint64
	Compactions uint64
	Users       int
	BaseUsers   int
	StagedUsers int
}

// CFLive is the online update path for one CF shard. Appended users
// stage invisibly, publish as an exactly scored delta segment, and fold
// into a new base at compaction. Unlike the aggregation shard — whose
// synopsis merges incrementally in priority order — the CF base is
// rebuilt from scratch at each compaction: its synopsis (SVD model,
// R-tree, aggregated users) is deeply mutable state that cannot be
// shared between epochs without cloning it wholesale, and the rebuild
// is deterministic, so a compacted live snapshot is still bit-identical
// to a frozen build over the same users. Compactions are therefore
// expensive and meant to run on a coarse cadence; freshness between
// them comes from the exact delta fold.
type CFLive struct {
	nItems int
	cfg    synopsis.Config

	mu        sync.Mutex
	users     [][]cf.Rating // sorted, immutable once appended
	means     []float64
	based     int
	published int
	base      *cf.Component
	oldest    time.Time
	stats     CFStats

	snaps Epochs[CFSnapshot]
}

// NewCFLive returns an empty live CF shard over an item space of
// nItems, with an initial empty snapshot published (epoch 1).
func NewCFLive(nItems int, cfg synopsis.Config) *CFLive {
	if nItems <= 0 {
		panic("ingest: live CF shard needs a positive item space")
	}
	l := &CFLive{nItems: nItems, cfg: cfg}
	l.snaps.Publish(&CFSnapshot{nItems: nItems})
	return l
}

// Snapshot acquires the current snapshot and its epoch.
func (l *CFLive) Snapshot() (*CFSnapshot, uint64) { return l.snaps.Acquire() }

// Epoch returns the current epoch.
func (l *CFLive) Epoch() uint64 { return l.snaps.Epoch() }

// Stats returns a snapshot of the ingest counters.
func (l *CFLive) Stats() CFStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Users = len(l.users)
	st.BaseUsers = l.based
	st.StagedUsers = len(l.users) - l.published
	return st
}

// Append stages one user's ratings (any order; duplicates allowed, as
// in Matrix.SetUser). The copy is sorted and its mean computed exactly
// as Matrix.SetUser would, so the delta contribution matches what the
// user contributes after the next rebuild. Returns the user's id in
// append order.
func (l *CFLive) Append(ratings []cf.Rating) (int, error) {
	cp := append([]cf.Rating(nil), ratings...)
	slices.SortFunc(cp, func(a, b cf.Rating) int { return int(a.Item) - int(b.Item) })
	sum := 0.0
	for _, r := range cp {
		if r.Item < 0 || int(r.Item) >= l.nItems {
			return 0, fmt.Errorf("ingest: rating item %d outside [0,%d)", r.Item, l.nItems)
		}
		sum += r.Score
	}
	mean := 0.0
	if len(cp) > 0 {
		mean = sum / float64(len(cp))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.users) == l.published {
		l.oldest = time.Now()
	}
	id := len(l.users)
	l.users = append(l.users, cp)
	l.means = append(l.means, mean)
	l.stats.Appends++
	return id, nil
}

// publishLocked swaps in a snapshot exposing users [0, n). Caller
// holds l.mu.
func (l *CFLive) publishLocked(n int) (uint64, int, time.Duration) {
	var lag time.Duration
	if n > l.published && !l.oldest.IsZero() {
		lag = time.Since(l.oldest)
		l.oldest = time.Time{}
	}
	moved := n - l.published
	snap := &CFSnapshot{
		comp:       l.base,
		deltaUsers: l.users[l.based:n:n],
		deltaMeans: l.means[l.based:n:n],
		nItems:     l.nItems,
	}
	l.published = n
	l.stats.Publishes++
	return l.snaps.Publish(snap), moved, lag
}

// PublishDelta makes every staged user visible; see
// AggLive.PublishDelta for the contract.
func (l *CFLive) PublishDelta() (uint64, int, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.users); n > l.published {
		return l.publishLocked(n)
	}
	return l.snaps.Epoch(), 0, 0
}

// Compact rebuilds the base component over every appended user and
// publishes it with an empty delta. The rebuild re-adds users in append
// order, so ids are stable across compactions and the result is
// bit-identical to a frozen build over the same users.
func (l *CFLive) Compact() (uint64, int, time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.users)
	if n == l.based {
		return l.snaps.Epoch(), 0, 0, nil
	}
	m := cf.NewMatrix(l.nItems)
	for _, rs := range l.users[:n] {
		m.AddUser(rs)
	}
	comp, err := cf.BuildComponent(m, l.cfg)
	if err != nil {
		return l.snaps.Epoch(), 0, 0, err
	}
	folded := n - l.based
	l.base = comp
	l.based = n
	l.stats.Compactions++
	ep, _, lag := l.publishLocked(n)
	return ep, folded, lag, nil
}

// BuildCFSnapshot is the frozen-rebuild reference for the property
// harness: the compacted snapshot a live shard converges to after
// appending exactly these users and compacting.
func BuildCFSnapshot(nItems int, cfg synopsis.Config, users [][]cf.Rating) (*CFSnapshot, error) {
	l := NewCFLive(nItems, cfg)
	for _, rs := range users {
		if _, err := l.Append(rs); err != nil {
			return nil, err
		}
	}
	if _, _, _, err := l.Compact(); err != nil {
		return nil, err
	}
	snap, _ := l.Snapshot()
	return snap, nil
}
