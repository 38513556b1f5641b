// Package cost is the resource-attribution plane: it accounts what
// each request actually consumed (handler execution time, data units
// scanned, queue wait, bytes on the wire) and aggregates it per
// (tenant, SLO class, workload, ladder level) into exact running
// totals and EWMA per-request cost curves.
//
// The plane has two halves:
//
//   - Account is the per-request accumulator. The front server opens
//     one, every hop that measures something folds its usage in (the
//     aggregator stitches component-side span costs from v6 sub-reply
//     frames exactly like it stitches trace spans), and the front
//     server closes the request by folding the account into a Table.
//
//   - Table is the aggregate keyed by Key: one map under one lock.
//     Both the per-key entries and the global counters are fed the
//     same integer values, so per-tenant sums equal the global totals
//     exactly — the conservation contract `-exp costcompare` pins.
//
// Everything is nil-safe: a nil *Table and a nil *Account no-op, so a
// deployment without cost attribution pays zero allocations on the
// serving path (bench-guarded in CI).
//
// Frontier joins a Table snapshot with the audit plane's calibration
// tables into the per-workload accuracy-vs-cost Pareto frontier served
// at /frontier: the measured answer to "what does one more nine of
// accuracy cost here".
package cost
