// Package cf implements the user-based collaborative-filtering recommender
// service of the paper (§3.2): a user-item rating matrix, Pearson
// similarity weights, weighted-average rating prediction, and the
// AccuracyTrader integration — aggregated users built from synopsis groups
// and an Algorithm 1 engine that first predicts from aggregated users and
// then refines with the original users of the most correlated groups.
//
// # The kernel
//
// A request spends its time in one loop: the Pearson weight of the active
// user against a neighbour, then the neighbour's weighted deviation on
// every target it rated. That loop exists once, as the bound-request
// scorer (scorer.go), and every scan site runs it: ExactResultInto (the
// "exact processing" baseline), Engine.ProcessSynopsis and
// Engine.ProcessSet (Algorithm 1 lines 1 and 7) and DeltaScorer (a live
// shard's not-yet-compacted users, internal/ingest).
//
// Binding a request stamps one epoch-validated per-item table with the
// active user's rating index and the first target slot of every item the
// request mentions — O(active + targets), nothing to clear. Folding a
// neighbour is then one stream over its ratings, one table probe each:
// co-rated score pairs are collected into a buffer sized at bind, target
// hits into a second, the weight is computed over the collected pairs and
// the hits are applied at it.
//
// The scorer is bit-identical to the naive kernels retained in
// reference_test.go (materialize the co-rated pairs by merge-join, then
// vmath.Pearson; a binary search per neighbour x target), not merely
// close to them, because each accumulator sees the same floating-point
// operations in the same order: pairs are collected, summed and centred
// in item order, as the merge-join meets them, and each target slot
// receives its neighbours' contributions in scan order. Duplicate items,
// which Matrix.SetUser and a wire request both admit, follow the
// merge-join's rule: the k-th duplicate of a neighbour's item pairs with
// the k-th duplicate of the active user's, and only an item's first
// occurrence feeds a target. Items outside the item space, which only a
// request can carry, are left out of the table at bind: they match no
// neighbour, exactly as in a merge-join.
//
// Weight(a, b) remains the public two-vector definition of the similarity
// — for callers that hold two vectors and no request (the Figure 3/4
// experiments, the workload generator's tests) and as a differential
// oracle in tests. No scan loop calls it.
//
// Two levers are deliberately left. An item-major index (per item, the
// users who rated it) would visit only co-rated and target entries, about
// 8x less work on the benchmark's shards, but costs about 1.9 MB per
// shard against a 7.2 MiB live heap and needs a second mutation path
// beside SetUser. A struct-of-arrays row layout (items and scores in
// separate arrays) would halve the bytes the probe loop streams. Neither
// changes results; both change what a shard holds in memory.
package cf
