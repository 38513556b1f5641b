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
// scorer (scorer.go), and all three scan sites run it: ExactResultInto
// (the "exact processing" baseline), Engine.ProcessSynopsis and
// Engine.ProcessSet (Algorithm 1 lines 1 and 7).
//
// Binding a request stamps one epoch-validated per-item table with the
// active user's rating index and the first target slot of every item the
// request mentions — O(active + targets), nothing to clear — and sets two
// item bitmaps, one word per 64 items: the items the active user rated
// and the target items.
//
// A matrix user is folded by its item bitmap, which Matrix.SetUser keeps
// beside its row. The user's words ANDed with the request's give exactly
// the co-rated items and the rated targets; each one's rating is found in
// the row by rank (the popcount of the user's bits below it), so only the
// ratings that matter are read, and no branch depends on whether a given
// rating pairs or hits. The streaming fold — one pass over the ratings,
// one table probe each — still runs where the bitmap cannot: for
// aggregated users (ProcessSynopsis), which have no bitmap; for a matrix
// row that repeats an item (SetUser flags it), whose k-th-duplicate rule
// below rank cannot express; and for
// ProcessSet's retraction of an aggregated user at a known weight. Either
// way co-rated score pairs are collected into a buffer sized at bind,
// target hits into a second, the weight is computed over the collected
// pairs and the hits are applied at it.
//
// The bitmap costs a word per 64 items, scanned for every matrix user, so
// it pays while rows hold more than about one rating per 64 items; below
// that a user's words outnumber its ratings and the stream would read
// less. The benchmark's shards hold ~50 ratings per user over 200 items
// (4 words).
//
// The scorer is bit-identical to the naive kernels retained in
// reference_test.go (materialize the co-rated pairs by merge-join, then
// pearson; a binary search per neighbour x target), not merely
// close to them, because each accumulator sees the same floating-point
// operations in the same order: pairs are collected, summed and centred
// in item order, as the merge-join meets them, and each target slot
// receives its neighbours' contributions in scan order, each neighbour's
// in item order. Duplicate items, which Matrix.SetUser and a wire request
// both admit, follow the merge-join's rule: the k-th duplicate of a
// neighbour's item pairs with the k-th duplicate of the active user's,
// and only an item's first occurrence feeds a target. Items outside the
// item space, which only a request can carry, are left out of the table
// and the bitmaps at bind: they match no neighbour, exactly as in a
// merge-join.
//
// Weight(a, b) remains the public two-vector definition of the similarity
// — for callers that hold two vectors and no request (the Figure 3/4
// experiments, the workload generator's tests) and as a differential
// oracle in tests. No scan loop calls it.
//
// Two levers are deliberately left. An item-major index (per item, the
// users who rated it) would visit only the postings of the items a
// request mentions. On the benchmark's shards that is ~100 of 200 items
// (~80 active, ~20 targets), so about half of the 19,871 ratings a shard
// holds, and the index is a second copy of them: ~0.3 MB a shard beside
// ~318 KB of 16-byte rows, and a second mutation path beside SetUser.
// The bitmap path already reads only the ratings that pair or hit, at 32
// bytes a user. A struct-of-arrays row layout (items and scores in
// separate arrays) would halve the bytes the stream reads. Neither
// changes results; both change what a shard holds in memory.
package cf
