package wire

import (
	"sync"
	"unsafe"
)

// subRecord is a pooled sub-reply and everything its payload needs: the
// payload struct of each kind, a search result's inline hits, a traced
// reply's ServerSpans spans, and the float backing a CF or aggregation
// result's arrays are carved from. Every sub-reply has this one shape, so
// a record released from a reply of one kind serves the next reply of
// any kind; the backing stays with the record across uses, which is what
// makes a warm record's reply cost no allocation on either side of the
// wire.
//
// The SubReply comes first: a pooled *SubReply is its record's address
// (recordOf). That is the whole link from a record back to its pool — a
// SubReply has no field for it, so records compare, print and encode
// exactly as ones built by hand.
type subRecord struct {
	rep    SubReply
	cf     CFResult
	agg    AggResult
	search SearchPayload
	spans  [ServerSpans]Span
	floats []float64
}

// subRecords is the one sub-reply record pool. A sync.Pool, not a free
// list: the garbage collector empties it, so the records it holds never
// count as live heap.
var subRecords = sync.Pool{New: func() any { return new(subRecord) }}

// maxKeptFloats bounds the float backing a released record keeps: one
// outsized result does not pin its arrays in the pool.
const maxKeptFloats = 1 << 14

// recordOf returns the record a pooled sub-reply lives in. rep must have
// come from NewSubReply or DecodeSubReply.
func recordOf(rep *SubReply) *subRecord { return (*subRecord)(unsafe.Pointer(rep)) }

// clear empties the record for its next use, keeping its float backing
// (unless outsized): no field of the last reply, nor anything it pointed
// at, survives.
func (rec *subRecord) clear() {
	floats := rec.floats
	if cap(floats) > maxKeptFloats {
		floats = nil
	}
	*rec = subRecord{floats: floats}
}

// NewSubReply takes an OK sub-reply of kind from the record pool, with
// the payload struct of its kind set (a search result's hit list empty,
// in its inline array) and, when traced, an empty span list with room
// for ServerSpans spans. Size a CF or aggregation result's arrays with
// SizeCF or SizeAgg. Whoever holds the last reference may hand the record
// back with ReleaseSubReply; one never released is garbage like any other
// record.
func NewSubReply(kind Kind, traced bool) *SubReply {
	rec := subRecords.Get().(*subRecord)
	take(rec)
	rep := &rec.rep
	rep.Status, rep.Kind, rep.Level = StatusOK, kind, NoLevel
	switch kind {
	case KindCF:
		rep.CF = &rec.cf
	case KindSearch:
		rep.Search = rec.search.Init()
	default:
		rep.Agg = &rec.agg
	}
	if traced {
		rep.Spans = rec.spans[:0:ServerSpans]
	}
	return rep
}

// zeroed returns a zeroed backing of n floats, the record's own when it
// is long enough.
func (rec *subRecord) zeroed(n int) []float64 {
	if cap(rec.floats) < n {
		rec.floats = make([]float64, n)
	}
	b := rec.floats[:n]
	clear(b)
	return b
}

// SizeCF sets a pooled CF reply's arrays to n zeroed targets each,
// carved from its record's float backing and capped at their length, and
// returns its result. rep must have come from NewSubReply(KindCF, …).
func SizeCF(rep *SubReply, n int) *CFResult {
	rec := recordOf(rep)
	b := rec.zeroed(2 * n)
	rec.cf = CFResult{Num: b[:n:n], Den: b[n : 2*n : 2*n]}
	return &rec.cf
}

// SizeAgg sets a pooled aggregation reply's four arrays to n zeroed keys
// each, carved from its record's float backing and capped at their
// length, and returns its result. rep must have come from
// NewSubReply(KindAgg, …).
func SizeAgg(rep *SubReply, n int) *AggResult {
	rec := recordOf(rep)
	b := rec.zeroed(4 * n)
	rec.agg = AggResult{Sum: b[:n:n], Cnt: b[n : 2*n : 2*n], SumVar: b[2*n : 3*n : 3*n], CntVar: b[3*n : 4*n : 4*n]}
	return &rec.agg
}

// ReleaseSubReply hands a sub-reply that NewSubReply or DecodeSubReply
// returned back to the record pool. The caller must be its last user:
// the record, its payload and its arrays are cleared and reused by the
// next reply of any kind. A component server releases its reply once the
// frame is written; a front server, the replies it composed. Under the
// race detector a released record is poisoned instead of cleared
// (poison_race.go), so a use after release reads NaN and out-of-range
// codes, and a second release panics.
func ReleaseSubReply(rep *SubReply) {
	rec := recordOf(rep)
	release(rec)
	subRecords.Put(rec)
}
