package wire

import (
	"encoding/binary"
	"fmt"
)

// Ingest statuses (IngestReply.Status).
const (
	IngestOK       = 0
	IngestErr      = 1 // the batch was rejected; Err says why
	IngestRejected = 2 // shed at admission (queue bound, shutdown)
)

// AggIngest appends fact rows to an aggregation shard: parallel
// (group key, value) columns of equal length.
type AggIngest struct {
	Keys []int32
	Vals []float64
}

// IngestRequest is a v5 append op: a batch of new fact rows for the
// aggregation workload, the one workload with a live store (CF and
// search payload kinds are rejected as unknown). With Subset < 0 it is a client→aggregator request
// routed to the owning component; otherwise it targets one subset
// directly. The batch is atomic — it becomes visible in full at an
// epoch swap, or is rejected in full.
type IngestRequest struct {
	ID     uint64
	Kind   Kind
	Subset int32
	// Trace is the request's 64-bit trace ID (0 = untraced), propagated
	// so ingest spans land in the same trace tree as query spans.
	Trace uint64

	Agg *AggIngest
}

// IngestReply acknowledges an append batch: how many rows were
// accepted and the epoch at (or after) which they will be visible.
type IngestReply struct {
	ID     uint64
	Subset int32
	Status uint8
	Err    string
	// Accepted is the number of rows staged.
	Accepted uint32
	// Epoch is the shard's epoch when the batch was staged; the batch is
	// visible to every snapshot with a strictly greater epoch.
	Epoch uint64
}

// FrameSize returns the exact number of bytes AppendIngestRequestFrame
// appends for req, length prefix included.
func (req *IngestRequest) FrameSize() int {
	n := frameHeaderSize + 8 + 1 + 4 + 8
	if req.Kind == KindAgg {
		n += 4 + 4*len(req.Agg.Keys) + 4 + 8*len(req.Agg.Vals)
	}
	return n
}

// AppendIngestRequestFrame appends the length-prefixed encoding of req,
// growing dst at most once (to FrameSize).
func AppendIngestRequestFrame(dst []byte, req *IngestRequest) []byte {
	dst = grow(dst, req.FrameSize())
	start := len(dst)
	dst = appendU32(dst, 0) // length, patched below
	dst = append(dst, Version, frameIngest)
	dst = appendU64(dst, req.ID)
	dst = append(dst, byte(req.Kind))
	dst = appendU32(dst, uint32(req.Subset))
	dst = appendU64(dst, req.Trace)
	if req.Kind == KindAgg {
		dst = appendI32s(dst, req.Agg.Keys)
		dst = appendF64s(dst, req.Agg.Vals)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// DecodeIngestRequest decodes an ingest-request frame body.
func DecodeIngestRequest(body []byte) (*IngestRequest, error) {
	r := &reader{b: body}
	if err := checkHeader(r, frameIngest, "ingest"); err != nil {
		return nil, err
	}
	req := &IngestRequest{}
	req.ID = r.u64("id")
	req.Kind = Kind(r.u8("kind"))
	req.Subset = int32(r.u32("subset"))
	req.Trace = r.u64("trace")
	if req.Kind != KindAgg {
		return nil, fmt.Errorf("wire: unknown payload kind %d", req.Kind)
	}
	req.Agg = &AggIngest{Keys: r.i32s("keys"), Vals: r.f64s("vals")}
	if r.err == nil && len(req.Agg.Keys) != len(req.Agg.Vals) {
		return nil, fmt.Errorf("wire: agg ingest shape %d keys, %d vals",
			len(req.Agg.Keys), len(req.Agg.Vals))
	}
	if err := r.done("ingest"); err != nil {
		return nil, err
	}
	return req, nil
}

// FrameSize returns the exact number of bytes AppendIngestReplyFrame
// appends for rep, length prefix included.
func (rep *IngestReply) FrameSize() int {
	return frameHeaderSize + 8 + 4 + 1 + 4 + len(rep.Err) + 4 + 8
}

// AppendIngestReplyFrame appends the length-prefixed encoding of rep,
// growing dst at most once (to FrameSize).
func AppendIngestReplyFrame(dst []byte, rep *IngestReply) []byte {
	dst = grow(dst, rep.FrameSize())
	start := len(dst)
	dst = appendU32(dst, 0)
	dst = append(dst, Version, frameIngestReply)
	dst = appendU64(dst, rep.ID)
	dst = appendU32(dst, uint32(rep.Subset))
	dst = append(dst, rep.Status)
	dst = appendStr(dst, rep.Err)
	dst = appendU32(dst, rep.Accepted)
	dst = appendU64(dst, rep.Epoch)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// DecodeIngestReply decodes an ingest-reply frame body.
func DecodeIngestReply(body []byte) (*IngestReply, error) {
	r := &reader{b: body}
	if err := checkHeader(r, frameIngestReply, "ingest reply"); err != nil {
		return nil, err
	}
	rep := &IngestReply{}
	rep.ID = r.u64("id")
	rep.Subset = int32(r.u32("subset"))
	rep.Status = r.u8("status")
	rep.Err = r.str("err")
	rep.Accepted = r.u32("accepted")
	rep.Epoch = r.u64("epoch")
	if err := r.done("ingest reply"); err != nil {
		return nil, err
	}
	return rep, nil
}
