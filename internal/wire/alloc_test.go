package wire

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// longTenant is one byte past a request record's inline bytes.
var longTenant = strings.Repeat("t", recordStrBytes+1)

// allocFrames is one frame of every kind for the allocation contracts.
var allocFrames = []struct {
	name  string
	enc   func(dst []byte) []byte
	allow float64 // Decode* allocations: 1 + one per variable-length field that does not fit inline; -1 = not pinned
	dec   func(body []byte) error
}{
	// A search request's tenant and query share inlineStrBytes (24): 4 + 16
	// fit, 4 + 21 leave the query to spill.
	{"request/search+tenant", func(dst []byte) []byte {
		return AppendRequestFrame(dst, &Request{ID: 1, Kind: KindSearch, Subset: -1, Tenant: "acme",
			Search: &SearchRequest{Query: "alpha beta gamma", K: 10}})
	}, 1, decodes(DecodeRequest)},
	{"request/search+tenant, 25 bytes", func(dst []byte) []byte {
		return AppendRequestFrame(dst, &Request{ID: 1, Kind: KindSearch, Subset: -1, Tenant: "acme",
			Search: &SearchRequest{Query: "alpha beta gamma zeta", K: 10}})
	}, 1 + 1, decodes(DecodeRequest)},
	{"request/search, with a caller record", func(dst []byte) []byte {
		return AppendRequestFrame(dst, &Request{ID: 1, Kind: KindSearch, Subset: 3,
			Search: &SearchRequest{Query: "alpha beta gamma", K: 10}})
	}, 1, func(body []byte) error {
		_, _, err := DecodeRequestWith[[120]byte](body)
		return err
	}},
	{"request/cf", func(dst []byte) []byte {
		return AppendRequestFrame(dst, &Request{ID: 1, Kind: KindCF,
			CF: &CFRequest{Ratings: []Rating{{Item: 1, Score: 2}}, Targets: []int32{3, 4}}})
	}, 1 + 2, decodes(DecodeRequest)},
	{"request/agg", func(dst []byte) []byte {
		return AppendRequestFrame(dst, &Request{ID: 1, Kind: KindAgg, Agg: &AggRequest{Op: 1, Lo: 0, Hi: 9}})
	}, 1, decodes(DecodeRequest)},
	{"request/agg+tenant", func(dst []byte) []byte {
		return AppendRequestFrame(dst, &Request{ID: 1, Kind: KindAgg, Tenant: "acme", Agg: &AggRequest{Op: 1, Lo: 0, Hi: 9}})
	}, 1 + 1, decodes(DecodeRequest)},
	// A warm request record (a component server's) holds every kind's
	// payload struct, its CF lists' backings and recordStrBytes (48) of
	// tenant and query: only a longer tenant or query allocates.
	{"record/search+tenant", func(dst []byte) []byte {
		return AppendRequestFrame(dst, &Request{ID: 1, Kind: KindSearch, Subset: 3, Tenant: "acme",
			Search: &SearchRequest{Query: "t12w345 t12w7 t12w88", K: 10}})
	}, 0, decodesRecord(new(RequestRecord))},
	{"record/cf", func(dst []byte) []byte {
		return AppendRequestFrame(dst, &Request{ID: 1, Kind: KindCF, Subset: 3,
			CF: &CFRequest{Ratings: make([]Rating, 80), Targets: make([]int32, 20)}})
	}, 0, decodesRecord(new(RequestRecord))},
	{"record/agg+tenant", func(dst []byte) []byte {
		return AppendRequestFrame(dst, &Request{ID: 1, Kind: KindAgg, Subset: 3, Tenant: "acme", Agg: &AggRequest{Op: 1, Lo: 0, Hi: 9}})
	}, 0, decodesRecord(new(RequestRecord))},
	{"record/agg, 49-byte tenant", func(dst []byte) []byte {
		return AppendRequestFrame(dst, &Request{ID: 1, Kind: KindAgg, Subset: 3, Tenant: longTenant,
			Agg: &AggRequest{Op: 1, Lo: 0, Hi: 9}})
	}, 1, decodesRecord(new(RequestRecord))},
	// A sub-reply decodes into a pooled record (released here after each
	// decode, as a front server does): a warm record holds DefaultK hits,
	// ServerSpans spans and its float backing, so only a longer hit or
	// span list and an error string allocate.
	{"sub-reply/search", func(dst []byte) []byte {
		return AppendSubReplyFrame(dst, &SubReply{ID: 1, Kind: KindSearch, Level: NoLevel,
			Search: &SearchResult{Hits: make([]Hit, DefaultK)}})
	}, 0, decodesReleased},
	{"sub-reply/search, 11 hits", func(dst []byte) []byte {
		return AppendSubReplyFrame(dst, &SubReply{ID: 1, Kind: KindSearch, Level: NoLevel,
			Search: &SearchResult{Hits: make([]Hit, DefaultK+1)}})
	}, 1, decodesReleased},
	{"sub-reply/cf", func(dst []byte) []byte {
		return AppendSubReplyFrame(dst, &SubReply{ID: 1, Kind: KindCF, Level: NoLevel,
			CF: &CFResult{Num: make([]float64, 40), Den: make([]float64, 40)}})
	}, 0, decodesReleased},
	{"sub-reply/agg+spans", func(dst []byte) []byte {
		return AppendSubReplyFrame(dst, &SubReply{ID: 1, Kind: KindAgg, Level: 2, Spans: make([]Span, 2),
			Agg: &AggResult{Sum: make([]float64, 64), Cnt: make([]float64, 64), SumVar: make([]float64, 64), CntVar: make([]float64, 64)}})
	}, 0, decodesReleased},
	{"sub-reply/agg+3 spans", func(dst []byte) []byte {
		return AppendSubReplyFrame(dst, &SubReply{ID: 1, Kind: KindAgg, Level: 2, Spans: make([]Span, ServerSpans+1),
			Agg: &AggResult{Sum: make([]float64, 64), Cnt: make([]float64, 64), SumVar: make([]float64, 64), CntVar: make([]float64, 64)}})
	}, 1, decodesReleased},
	{"sub-reply/busy", func(dst []byte) []byte {
		return AppendSubReplyFrame(dst, &SubReply{ID: 1, Kind: KindAgg, Status: StatusBusy, Err: "server queue full", Level: NoLevel})
	}, 1, decodesReleased},
	{"reply/search", func(dst []byte) []byte {
		return AppendReplyFrame(dst, &Reply{ID: 1, Kind: KindSearch, Level: NoLevel, SubStatus: make([]uint8, 8),
			Search: &SearchResult{Hits: make([]Hit, DefaultK)}})
	}, 1, decodes(DecodeReply)},
	{"reply/agg, wide fan-out", func(dst []byte) []byte {
		return AppendReplyFrame(dst, &Reply{ID: 1, Kind: KindAgg, Level: 1, SubStatus: make([]uint8, inlineSubStatus+1),
			Agg: &AggResult{Sum: make([]float64, 64), Cnt: make([]float64, 64), SumVar: make([]float64, 64), CntVar: make([]float64, 64)}})
	}, 1 + 2, decodes(DecodeReply)},
	{"reply/rejected", func(dst []byte) []byte {
		return AppendReplyFrame(dst, &Reply{ID: 1, Kind: KindCF, Status: ReplyRejected, Level: NoLevel})
	}, 1, decodes(DecodeReply)},
	{"ingest request", func(dst []byte) []byte {
		return AppendIngestRequestFrame(dst, &IngestRequest{ID: 1, Kind: KindAgg,
			Agg: &AggIngest{Keys: make([]int32, 32), Vals: make([]float64, 32)}})
	}, -1, decodes(DecodeIngestRequest)},
	{"ingest reply", func(dst []byte) []byte {
		return AppendIngestReplyFrame(dst, &IngestReply{ID: 1, Subset: 2, Accepted: 32, Epoch: 5})
	}, -1, decodes(DecodeIngestReply)},
}

func decodes[T any](dec func([]byte) (*T, error)) func([]byte) error {
	return func(body []byte) error {
		_, err := dec(body)
		return err
	}
}

// decodesRecord decodes a request into rec and releases it, as a
// component server does once the reply is written.
func decodesRecord(rec *RequestRecord) func([]byte) error {
	return func(body []byte) error {
		_, err := rec.Decode(body)
		if err == nil {
			rec.Release()
		}
		return err
	}
}

// decodesReleased decodes a sub-reply and hands its record back.
func decodesReleased(body []byte) error {
	rep, err := DecodeSubReply(body)
	if err == nil {
		ReleaseSubReply(rep)
	}
	return err
}

// TestFrameAllocations pins the codec's allocation counts, the numbers
// the serve path's per-request budget is built from: a frame of any of
// the five kinds encodes into a buffer with room without allocating and
// into nil with exactly one allocation (the buffer, grown once to
// FrameSize); a request or composed reply decodes into one heap object
// plus one per variable-length field that does not fit inline in it (a
// search request's short strings and up to DefaultK hits do), a request
// into a warm RequestRecord with none but a string past its inline bytes,
// a sub-reply into a warm pooled record with only those fields' (not
// asserted under the race detector, whose pools drop records at random);
// and a connection's steady state reads frames without allocating.
func TestFrameAllocations(t *testing.T) {
	warm := make([]byte, 0, 4096)
	var stream []byte
	for _, f := range allocFrames {
		f := f
		if n := testing.AllocsPerRun(100, func() { f.enc(warm) }); n != 0 {
			t.Errorf("%s: encode into a warm buffer allocates %.0f times, want 0", f.name, n)
		}
		if n := testing.AllocsPerRun(100, func() { f.enc(nil) }); n != 1 {
			t.Errorf("%s: encode into nil allocates %.0f times, want 1", f.name, n)
		}
		frame := f.enc(nil)
		if err := f.dec(frame[4:]); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		pooled := strings.HasPrefix(f.name, "sub-reply") // decodesReleased
		if n := testing.AllocsPerRun(100, func() { _ = f.dec(frame[4:]) }); f.allow >= 0 && !(pooled && raceEnabled) && n != f.allow {
			t.Errorf("%s: decode allocates %.0f times, want %.0f", f.name, n, f.allow)
		}
		stream = append(stream, frame...)
	}
	rd := bytes.NewReader(nil)
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(stream)
		for range allocFrames {
			var err error
			if buf, err = ReadFrame(rd, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("ReadFrame into a buffer with room allocates %.2f times per %d frames, want 0", n, len(allocFrames))
	}
}

// TestSubReplyBoxSizes pins the objects a sub-reply lives in: the bare
// record an in-process handler may build (the record itself, nothing for
// tracing), and the pooled record every served and decoded sub-reply
// shares, whatever its kind — the record, the payload struct of each
// kind, DefaultK inline hits, ServerSpans spans and its float backing's
// header, 560 bytes in the 576-byte size class. A pooled record is
// allocated once per pool slot, not per reply, yet growing it is still a
// change to review, not a side effect.
func TestSubReplyBoxSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"bare", unsafe.Sizeof(SubReply{}), 96},
		{"pooled", unsafe.Sizeof(subRecord{}), 560},
	} {
		if c.got != c.want {
			t.Errorf("%s sub-reply record is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
