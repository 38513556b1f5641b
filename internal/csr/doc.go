// Package csr provides flat CSR-style row storage — a performance
// extension (PR 2) beyond the paper, backing the online scoring
// kernels whose per-request cost every latency figure rests on.
//
// All rows of a ragged 2-D collection live in one backing array, addressed by per-row
// (offset, length, capacity) spans. Compared to a [][]T it removes one
// slice header + one allocation per row, and streaming over a row — the
// dominant access pattern of the online scoring kernels — touches one
// contiguous region of memory.
//
// Unlike textbook CSR, rows stay mutable: each row carries slack
// capacity, in-row inserts and removals shift within the row, and a row
// that outgrows its capacity relocates to the end of the backing array,
// leaving a hole. Holes are reclaimed by compaction once they exceed half
// the backing array, so space stays O(live + slack) amortized.
//
// A finished store is packed (Store.Pack): its live elements only, rows
// in order, no slack and no holes; search and CF components pack theirs
// at build.
package csr
