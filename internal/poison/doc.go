// Package poison makes recycled memory fail loudly under the race
// detector: Released panics on a record's second release, and Fill and
// NaN overwrite a released record's arrays, to their capacity, with
// values no live record carries, so a holder reading it after release
// sees them instead of the next request's plausible numbers. Outside
// race builds (poison_norace.go) the functions do nothing, so pooled
// paths keep their allocation counts.
package poison
