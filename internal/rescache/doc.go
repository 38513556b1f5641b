// Package rescache is the accuracy-aware result cache of the front tier
// (netsvc.ServerOptions.Cache): a bounded, accuracy-tagged map from
// canonical request keys to composed replies.
//
// In a Zipf-skewed request population most requests repeat, so the
// cheapest approximate answer is one that was already computed. The
// cache makes that reuse principled by extending the paper's
// per-request accuracy contract to cached answers: every entry carries
// the accuracy bound it was computed at (the calibrated ladder-level
// accuracy, or 1 for exact results) plus a data-version epoch, and a
// hit is served only when
//
//	cached accuracy >= request floor   AND   entry epoch is current.
//
// Exact-class requests have floor 1, Bounded requests their MinAccuracy
// (never loosened), and BestEffort requests a base floor that the
// degradation controller loosens under load (SetLoad) — the cache
// equivalent of serving a coarser ladder level. Synopsis updates bump
// the epoch (BumpEpoch), invalidating stale entries lazily on their
// next lookup.
//
// Three mechanisms make the cache production-shaped:
//
//   - a zero-alloc hot hit path: one mutex, an index map, and an
//     intrusive LRU threaded through a preallocated entry slab of
//     exactly Capacity, so Get performs no allocation (benchmarked and
//     CI-guarded at 0 allocs/op);
//   - one cache-fronted serve (Serve): lookup, then
//     singleflight coalescing — concurrent identical misses compute
//     once, and a waiter whose accuracy floor the shared result cannot
//     satisfy falls back to its own computation — then compute and
//     keep. Serve owns the rules around the map: the epoch is read
//     before computing, a result the computation does not ask to keep
//     (rejected, failed, partial) is neither shared nor stored, the
//     entry is tagged with its fill cost, and the outcome lands on the
//     request's trace;
//   - background refresh-to-exact: hits on entries below a target
//     accuracy enqueue the key for a low-priority worker that recomputes
//     the answer exactly and overwrites the entry — the paper's "coarse
//     first, refine later" applied to reuse, so popular answers get
//     more accurate over time. The worker is gated (SetRefresh) so it
//     yields while the service is overloaded.
//
// Keys are 64-bit hashes of a canonical request encoding (see
// wire.AppendCanonicalKey); Key hashes such bytes. The cache itself is
// payload-agnostic: its one caller, internal/netsvc's front server,
// keeps composed wire replies, supplies Serve its compute closure and
// stamps its own hits.
package rescache
