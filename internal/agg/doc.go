// Package agg implements the third application workload of the
// AccuracyTrader reproduction: approximate aggregation analytics in the
// style of BlinkDB (Agarwal et al., EuroSys 2013) — bounded-error
// SUM/COUNT/AVG-per-group queries answered from stratified samples.
//
// The paper (§2.2) argues synopsis-based approximate processing is
// application-generic: a component's data subset is reduced to a small
// synopsis plus an index file mapping each aggregated point to its
// original member set, and Algorithm 1 (internal/core) first processes
// the synopsis, then improves the result with the member sets most
// correlated to result accuracy. This package is the strongest test of
// that genericity in the repository, because its result type is
// structurally different from the other two applications' ranked ID
// lists: grouped numeric aggregates with closed-form error bounds.
//
// The mapping onto the paper's concepts:
//
//   - Original data points are the rows of a columnar fact table
//     (Table): (group key, value) pairs with Zipf-skewed keys.
//   - The index file's groups are strata, one per group key — the
//     BlinkDB stratification on the GROUP-BY column, which guarantees
//     rare groups are represented in the synopsis.
//   - The synopsis is a multi-resolution ladder of per-stratum samples
//     (Synopsis): each stratum's rows are shuffled once under a seeded
//     RNG and ladder level l takes a prefix whose length is that
//     level's sampling rate (nested samples, so finer levels strictly
//     extend coarser ones). Ladder level = sampling rate, the analogue
//     of synopsis.Ladder's compression-ratio cuts.
//   - ProcessSynopsis estimates each stratum's SUM and COUNT under the
//     query's value filter from its sample, scaled by the inverse
//     sampling rate, and attaches closed-form CLT error bounds (normal
//     approximation with finite-population correction). The
//     correlation of a stratum is its estimated error contribution to
//     the accuracy metric, a mean of per-group relative errors: the CI
//     half-width of the requested aggregate over the estimate's
//     magnitude. Algorithm 1 therefore ranks the relatively most
//     uncertain strata first — with Zipf keys, the small tail strata,
//     not the head strata whose wide absolute bounds are small beside
//     their estimates. A zero bound ranks last and a positive bound on a
//     zero estimate first, and the correlation is never NaN.
//   - ProcessSet replaces a stratum's estimate with its exact value
//     (zero variance), the counterpart of cf/textindex re-processing a
//     group's original members. Because the sample is a prefix of the
//     stratum's stored rows, it finishes the scan from where the sample
//     stopped instead of reading the stratum again: the synopsis pass
//     keeps each sample's raw sum and kept count, and the float adds
//     carry on in the same order, so the sum is bit-identical to one
//     scan of the whole stratum. Engine.GroupSize reports the rows an
//     improvement will read, the volume a metered run charges.
//
// Accuracy of an approximate answer is 1 − mean relative error against
// the exact answer (Accuracy), the metric reported by the `aggcompare`
// experiment; the frontend's Bounded{MinAccuracy} SLO class maps
// directly onto it via per-level calibration (MeasureLevelAccuracy).
//
// Engines follow the repository's pooling conventions: Reset re-targets
// an engine reusing all buffers, GetEngine/Release wrap a sync.Pool,
// and Result offers EstimatesInto/BoundsInto caller-buffer variants.
// The pooled fast paths are property-tested bit-identical to a retained
// naive reference (reference_test.go).
//
// Every scan — a ladder-level sample (stratumEstimate), the rest of a
// stratum or all of it (prefix.resume: ProcessSet, ExactResultInto) and
// a key/value batch no synopsis covers (Result.Fold, a live shard's
// delta) — selects rows with one branch-free step, Query.keep: a kept
// row adds its value and a count of one, a dropped row adds −0.0, the
// additive identity, so every accumulator is bit-identical to the
// branchy "if kept, add" (FuzzScanDifferential holds all three to the
// references with floats compared by bits, the resumed scan at every
// split of the stratum). The kernels gather values through the
// synopsis's row order. A frozen component built by BuildComponent
// keeps its caller's table order, so that order is a shuffle; a live
// shard's base (internal/ingest) is written in synopsis order, so the
// same kernels read it sequentially.
package agg
