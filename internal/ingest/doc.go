// Package ingest is the online update path of the reproduction's
// aggregation workload: it layers an append-friendly delta segment of
// new fact rows over the frozen synopsis base and publishes
// epoch-swapped read-mostly snapshots behind a single atomic pointer,
// so the pooled zero-alloc query engines stay lock-free on the hot
// path while a periodic merge worker compacts the delta into a new
// base. The compaction step performs per-stratum reservoir
// maintenance — strata stay ordered by a deterministic sampling
// priority, so every ladder level's prefix remains a uniform bottom-k
// sample whose rate (and therefore its CLT bounds) stays statistically
// honest as strata grow. A base is immutable between compactions, so
// each shard memoizes its base's exact answers in a fixed budget,
// keyed by the base's generation (its compaction count): a repeated
// Exact query scans only the delta, and answers stay bit-identical.
// Aggregation is the one workload with a live store because it is the
// one whose error bounds rest on the sample staying uniform; CF and
// search synopses are refreshed offline (synopsis.Update).
package ingest
