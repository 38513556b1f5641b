// Package wire is the compact length-prefixed binary protocol of the
// networked serving layer (an extension beyond the paper's in-process
// evaluation): sub-operation requests, component sub-replies, and
// composed whole-service replies for all three application workloads
// (CF recommender, web search, approximate aggregation).
//
// Every request carries the SLO class, the frontend-selected ladder
// level, and an absolute deadline, so each hop — aggregator, component
// server, Algorithm 1 inside a handler — can compute its remaining
// budget and abandon work the moment the budget is exhausted, which is
// what makes the paper's partial-execution and degradation techniques
// meaningful across process boundaries.
//
// Frames are little-endian, `uint32 length | version | kind | body`.
// Decoding is strictly bounds-checked with declared counts validated
// against the bytes actually present: corrupt or truncated input
// yields an error, never a panic or an attacker-sized allocation.
// Float64 values round-trip bit-exactly, so a result served over the
// network is bit-identical to the same result composed in process
// (asserted by the netcompare parity check).
//
// The codec produces no garbage of its own. Encoding: each of the five
// records knows its exact encoded size (FrameSize), and Append*Frame
// grows dst once to it — zero allocations into a buffer with room (a
// connection's writer reuses one), exactly one into nil. Decoding:
// ReadFrame reads into the caller's buffer, length prefix included, and
// DecodeRequest / DecodeSubReply / DecodeReply allocate one heap object
// per record, plus one per variable-length field that does not fit
// inline in it. The object holds the record and the payload struct of
// its kind, and inline in it a Reply's SubStatus bytes (up to 16), a
// search request's tenant and query (24 bytes together), a search
// result's hits (up to DefaultK, SearchPayload) and a traced
// sub-reply's ServerSpans spans (BoxSub): a traced sub-reply is one
// object, as an untraced one is, and an untraced one is no larger for
// it. Each field that does not fit is one allocation: a longer string
// or hit list, an error string, more spans than ServerSpans, a CF
// request's slices, and the parallel float arrays of one CF or
// aggregation result (one backing allocation, each array capped to its
// own length). DecodeRequestWith adds a zeroed record of the caller's
// to the same object, so a server's reader decodes each request into
// the job that serves it.
//
// Ownership is unchanged by any of this: a decoded record never aliases
// the body it was read from and belongs to the caller outright, who may
// retain it indefinitely (the result cache and the auditor do).
// Retaining a record, or any string or slice of it that lives inline,
// retains its whole object, and one array of a result its siblings. The
// inline strings are unsafe.String views of bytes the decoder writes
// once; a decoded record is never reused or pooled, so they never change
// (inlineString). The retained reference decoders in reference_test.go
// are the simple field-by-field form; FuzzDecodeDifferential holds the
// live ones to them.
package wire
