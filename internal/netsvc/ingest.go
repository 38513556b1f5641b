package netsvc

import (
	"context"

	"accuracytrader/internal/ingest"
	"accuracytrader/internal/wire"
)

// IngestHandler applies one append batch and returns its
// acknowledgement. The server fills in the reply's ID and Subset from
// the request; handlers must be safe for concurrent use (one call per
// connection reader can be in flight at a time). Batches are atomic:
// either every row is staged (IngestOK with the count) or none is.
type IngestHandler func(req *wire.IngestRequest) *wire.IngestReply

// SetIngest installs the append-batch handler. Component servers pass
// a handler staging into their live shards (NewLiveIngestHandler);
// front servers install a forwarding handler via EnableIngest. Call
// before Serve; without a handler, ingest frames are answered
// IngestRejected so a v5 client degrades cleanly against a read-only
// server.
func (s *srvCore) SetIngest(h IngestHandler) { s.ingest = h }

// serveIngest answers one decoded append batch on the connection's
// reader goroutine: staging into a live shard is a short, bounded
// critical section (no synopsis work — that happens on the merge
// worker), so appends bypass the query worker queue the way a write
// path must not contend with Algorithm 1's budgets.
func (s *srvCore) serveIngest(sc *connWriter, req *wire.IngestRequest) {
	s.ingests.Add(1)
	var rep *wire.IngestReply
	if h := s.ingest; h != nil {
		// The handler owns the reply's Subset: a front server reports
		// the shard an unrouted batch actually landed on, which the
		// request's own Subset (-1) cannot name.
		rep = h(req)
	} else {
		rep = &wire.IngestReply{Subset: req.Subset, Status: wire.IngestRejected, Err: "ingest not enabled"}
	}
	rep.ID = req.ID
	_ = sc.write(rep) // a failed write closed the connection: the calling reader exits on its next read
}

// LiveStores bundles the live shards one component server ingests
// into and serves from. Aggregation is the one workload with a live
// store (internal/ingest); a nil Agg rejects every batch.
type LiveStores struct {
	Agg []*ingest.AggLive
}

// NewLiveIngestHandler returns the component-side append handler over
// a set of live aggregation shards: each batch is validated, staged
// atomically into the owning shard, and acknowledged with the epoch at
// which it was staged (visible to every snapshot with a strictly
// greater epoch, i.e. after the merge worker's next swap).
func NewLiveIngestHandler(ls LiveStores) IngestHandler {
	return func(req *wire.IngestRequest) *wire.IngestReply {
		// The decoder admits aggregation batches only, so req.Agg is the
		// payload whenever it is set.
		rep := &wire.IngestReply{Subset: req.Subset}
		if len(ls.Agg) == 0 || req.Agg == nil {
			rep.Status = wire.IngestRejected
			rep.Err = "no live aggregation shard"
			return rep
		}
		// A batch that was never routed (Subset < 0) lands on shard 0.
		i := 0
		if req.Subset >= 0 {
			i = int(req.Subset) % len(ls.Agg)
		}
		l := ls.Agg[i]
		n, err := l.Append(req.Agg.Keys, req.Agg.Vals)
		if err != nil {
			rep.Status = wire.IngestErr
			rep.Err = err.Error()
			return rep
		}
		rep.Accepted = uint32(n)
		rep.Epoch = l.Epoch()
		rep.Status = wire.IngestOK
		return rep
	}
}

// NewLiveAggBackend returns a handler serving the aggregation workload
// from the epoch-swapped snapshots of live shards (component c answers
// for subset c mod len(lives)). Each request pins one snapshot with a
// single atomic load and answers entirely from it — concurrent epoch
// swaps never tear a result — using the snapshot's base synopsis at
// the requested ladder level plus an exact fold of the unmerged delta.
// Either way the answer is one bounded scan, not an Algorithm 1 run, so
// both hooks of the handler skeleton answer in place, into the reply's
// own arrays.
func NewLiveAggBackend(lives []*ingest.AggLive, opts BackendOptions) Handler {
	answer := func(exact bool, shard int, req *wire.Request, rep *wire.SubReply) (units int) {
		snap, _ := lives[shard].Snapshot()
		q := aggQuery(req)
		res := aggArrays(rep, snap.NumKeys())
		if base := snap.Base(); exact || base == nil {
			// Exact class — or an epoch before the first compaction, whose
			// only data is the exactly scanned delta.
			units = snap.Rows()
			res = snap.Exact(res, q)
		} else {
			level := int(req.Level)
			if req.Level == wire.NoLevel || level >= base.Syn.Levels() {
				level = base.Syn.Levels() - 1
			}
			if level < 0 {
				level = 0
			}
			units = base.Syn.SampleUnits(level) + snap.DeltaRows()
			res = snap.QueryLevel(res, q, level)
			rep.Level = int16(level)
		}
		setAgg(rep, res)
		return units
	}
	return newBackend(opts, backend{
		kind: wire.KindAgg, name: "aggregation", shards: len(lives),
		has: hasAgg,
		exact: func(shard int, req *wire.Request, rep *wire.SubReply) int {
			return answer(true, shard, req, rep)
		},
		approx: func(shard int, req *wire.Request, rep *wire.SubReply) (algorithm1, int) {
			return algorithm1{}, answer(false, shard, req, rep)
		},
	})
}

// EnableIngest makes the front server accept v5 append batches and
// forward each to its owning component through the aggregator, and
// wires the ingest-driven cache invalidation: whenever a component
// epoch swap is observed — via the advancing epochs on ingest
// acknowledgements, or a NotifyEpochSwap call by an in-process owner
// that swaps its stores itself — the result cache's epoch is bumped
// (staling every entry) and up to rewarmMax of the hottest entries are
// recomputed in the background (rescache.RewarmHot), turning the
// post-swap miss burst back into hits. rewarmMax 0 disables re-warming; without
// EnableCache the epoch bookkeeping is kept but there is nothing to
// invalidate. Call before Serve.
func (s *FrontServer) EnableIngest(rewarmMax int) {
	s.rewarmMax = rewarmMax
	s.SetIngest(func(req *wire.IngestRequest) *wire.IngestReply {
		ctx, cancel := context.WithTimeout(context.Background(), s.agg.Deadline())
		defer cancel()
		rep := s.agg.Ingest(ctx, req)
		if rep.Status == wire.IngestOK {
			// The staging epoch only advances across a swap, so observing
			// it grow is observing that previously composed answers went
			// stale — the cross-process invalidation signal.
			s.NotifyEpochSwap(rep.Epoch)
		}
		return rep
	})
}

// NotifyEpochSwap folds one observed data epoch into the front
// server's view. An advance past the highest epoch seen so far bumps
// the result cache (every cached answer predates the swap) and kicks
// one background re-warm pass over the hottest entries; stale or
// duplicate notifications are no-ops, so an in-process owner's calls
// and the acknowledgement-observed epochs can both feed it safely.
func (s *FrontServer) NotifyEpochSwap(epoch uint64) {
	for {
		cur := s.dataEpoch.Load()
		if epoch <= cur {
			return
		}
		if s.dataEpoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	if s.cache == nil {
		return
	}
	s.cache.BumpEpoch()
	// One re-warm pass at a time: each recomputation stamps the epoch
	// captured at its own start, so a pass that straddles further swaps
	// stays correct (entries are born stale) — overlapping passes would
	// only duplicate work.
	if s.rewarmMax > 0 && s.rewarming.CompareAndSwap(false, true) {
		go func() {
			defer s.rewarming.Store(false)
			s.cache.RewarmHot(s.rewarmMax)
		}()
	}
}

// DataEpoch returns the highest component data epoch observed through
// ingest acknowledgements and NotifyEpochSwap.
func (s *FrontServer) DataEpoch() uint64 { return s.dataEpoch.Load() }
