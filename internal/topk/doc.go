// Package topk provides a bounded top-k selector — a performance
// extension (PR 2) beyond the paper, serving the search engine's
// top-k result selection (the paper's §4.1 web-search case study)
// without sorting every matching document.
//
// The selector is a size-k min-heap that keeps the k best (score descending, id ascending on ties) of a streamed
// candidate set in O(n log k) time and O(k) space. It replaces the
// sort-everything-take-k pattern in the online scoring kernels, where n
// (matching documents) routinely dwarfs k (requested hits).
//
// The ordering is the total order used throughout the search engine:
// higher score first, ties broken toward the lower id. Because the order is total over distinct ids, the selected set and
// its emitted order are independent of offer order — the selector is
// result-identical to a full sort followed by truncation.
package topk
