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
// DecodeRequest / DecodeReply allocate one heap object per record, plus
// one per variable-length field that does not fit inline in it. The
// object holds the record and the payload struct of its kind, and inline
// in it a Reply's SubStatus bytes (up to 16), a search request's tenant
// and query (24 bytes together) and a search result's hits (up to
// DefaultK, SearchPayload). Each field that does not fit is one
// allocation: a longer string or hit list, an error string, a CF
// request's slices, and the parallel float arrays of one CF or
// aggregation result (one backing allocation, each array capped to its
// own length). DecodeRequestWith adds a zeroed record of the caller's to
// the same object, so a front server's reader decodes each request into
// the job that serves it. A RequestRecord is the reusable form a
// component server decodes its sub-requests into: every kind's payload
// struct, backings for a CF request's lists and 48 inline bytes of
// tenant and query, kept across uses, so a warm record decodes a frame
// without allocating; the two decoders share one field-by-field parse.
// DecodeSubReply decodes into a record from the sub-reply pool, one
// shape for every kind: the record, each kind's payload struct, DefaultK
// inline hits, a traced reply's ServerSpans spans and a float backing the
// result's arrays are carved from, which the record keeps across uses. A record fresh from the pool
// costs itself and its backing; a recycled one costs only what does not
// fit it (an error string, more spans or hits, arrays longer than its
// backing). NewSubReply takes the same records for a component's own
// replies, and SizeCF / SizeAgg carve their arrays.
//
// Ownership. A decoded request never aliases the body it was read from,
// and has one of two lifetimes. One from DecodeRequest or
// DecodeRequestWith belongs to the caller outright, who may retain it
// indefinitely (a front server's result cache and auditor do); retaining
// it, or any string or slice of it that lives inline, retains its whole
// object, and since that object is never reused its inline strings never
// change. One from a RequestRecord lives until the record's Release: a
// component server releases it once the sub-request's reply frame is
// written (or the request is shed or expired), and the record's next
// decode rewrites its lists and inline bytes, so nothing may keep the
// request, or a string or slice of it, past that. Either way the inline
// strings are unsafe.String views of bytes the decoder writes before the
// request is returned (inlineString). A composed reply is the one-shot
// kind. A sub-reply is a pooled record with a lifetime: NewSubReply or
// DecodeSubReply hands it out, and its last user hands it back with
// ReleaseSubReply, after which every field and array of it is cleared
// and reused. On a component server the record lives until its frame is
// written; on a front server, until it is composed into the reply —
// when the frontend drives the server's own aggregator. A decorated
// backend may keep the gathers it returns, so under one nothing is
// released. A record nobody releases is garbage like any other: an
// in-process handler's reply, a direct Aggregator.Call's, a hedge loser
// or a reply that arrives after a partial gather. Bench's codec probe
// decodes without releasing, so wire.codec_allocs_per_req still counts
// a fresh record per sub-reply. Nothing links a record to its pool but
// its address (the SubReply is the record's first field), so records
// compare and encode exactly as ones built by hand. The retained
// reference decoders in reference_test.go are the simple field-by-field
// form; FuzzDecodeDifferential holds the live ones to them, decoding
// every request and sub-reply body again into records recycled from
// other frames. Under the race detector a released record of either kind
// is poisoned (poison_race.go), and a second release panics.
package wire
