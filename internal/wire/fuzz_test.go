package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"accuracytrader/internal/stats"
)

// seedBodies returns valid frame bodies of every frame and payload
// kind, used as the fuzz corpus.
func seedBodies(t interface{ Fatalf(string, ...interface{}) }) [][]byte {
	rng := stats.NewRNG(7)
	strip := func(frame []byte) []byte { return frame[4:] }
	var out [][]byte
	for i := 0; i < 12; i++ {
		out = append(out,
			strip(AppendRequestFrame(nil, randRequest(rng))),
			strip(AppendSubReplyFrame(nil, randSubReply(rng))),
			strip(AppendReplyFrame(nil, randReply(rng))))
	}
	// Deterministic v3/v6 seeds: a traced, tenant-tagged request and a
	// sub-reply carrying costed server-side spans, so the trace, tenant
	// and cost fields are always in the corpus.
	out = append(out,
		strip(AppendRequestFrame(nil, &Request{
			ID: 1, Seq: 2, Kind: KindAgg, Subset: 0, SLO: SLOBounded,
			MinAccuracy: 0.9, Level: 1, Deadline: 1 << 40, Trace: 0xfeedface,
			Tenant: "acme",
			Agg:    &AggRequest{Op: 1, Lo: 0, Hi: 10},
		})),
		strip(AppendSubReplyFrame(nil, &SubReply{
			ID: 1, Subset: 0, Status: StatusOK, Kind: KindAgg, Level: 1,
			SetsProcessed: 3,
			Spans: []Span{
				{Kind: SpanQueue, Start: 1 << 40, Dur: 1_000_000, Cost: Cost{QueueNs: 1_000_000}},
				{Kind: SpanExec, Start: 1<<40 + 1_000_000, Dur: 4_000_000,
					Cost: Cost{CPUNs: 4_000_000, Scanned: 1234, WireBytes: 96}},
			},
			Agg: &AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0}, CntVar: []float64{0}},
		})),
		strip(AppendReplyFrame(nil, &Reply{
			ID: 1, Status: ReplyOK, Kind: KindAgg, SLO: SLOBounded,
			MinAccuracy: 0.9, Level: 1, Trace: 0xfeedface,
			SubStatus: []uint8{StatusOK},
			Agg:       &AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0}, CntVar: []float64{0}},
		})))
	return out
}

// FuzzDecodeRequest asserts decoding never panics on arbitrary bytes,
// and that anything that does decode re-encodes to a body that decodes
// to the identical message (encode→decode identity).
func FuzzDecodeRequest(f *testing.F) {
	for _, b := range seedBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		re := AppendRequestFrame(nil, req)[4:]
		back, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded request: %v", err)
		}
		// Compare encodings, not structs: encoding is deterministic, and
		// byte equality sidesteps NaN payloads (NaN != NaN under
		// DeepEqual) that arbitrary fuzz bytes legitimately decode to.
		if re2 := AppendRequestFrame(nil, back)[4:]; !bytes.Equal(re, re2) {
			t.Fatalf("re-encode not identity:\nfirst  %+v\nsecond %+v", req, back)
		}
	})
}

// FuzzDecodeSubReply is the sub-reply half of the identity fuzz.
func FuzzDecodeSubReply(f *testing.F) {
	for _, b := range seedBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeSubReply(data)
		if err != nil {
			return
		}
		re := AppendSubReplyFrame(nil, rep)[4:]
		back, err := DecodeSubReply(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded sub-reply: %v", err)
		}
		if re2 := AppendSubReplyFrame(nil, back)[4:]; !bytes.Equal(re, re2) {
			t.Fatalf("re-encode not identity:\nfirst  %+v\nsecond %+v", rep, back)
		}
	})
}

// FuzzDecodeReply is the composed-reply half of the identity fuzz.
func FuzzDecodeReply(f *testing.F) {
	for _, b := range seedBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReply(data)
		if err != nil {
			return
		}
		re := AppendReplyFrame(nil, rep)[4:]
		back, err := DecodeReply(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded reply: %v", err)
		}
		if re2 := AppendReplyFrame(nil, back)[4:]; !bytes.Equal(re, re2) {
			t.Fatalf("re-encode not identity:\nfirst  %+v\nsecond %+v", rep, back)
		}
	})
}

// sameRecord is reflect.DeepEqual with float64s compared by bit pattern:
// arbitrary fuzz bytes legitimately decode to NaNs, and NaN != NaN under
// DeepEqual. Like DeepEqual it tells a nil slice or pointer from an empty
// one.
func sameRecord(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameRecord(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameRecord(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameRecord(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default: // the records' scalars: integers, bools, strings
		return a.Interface() == b.Interface()
	}
}

// differential holds one frame kind's live decoder against its retained
// reference on one body: both fail, or both decode to the same record;
// the record shares no memory with the body it was decoded from; and it
// re-encodes to exactly FrameSize bytes that decode back to itself.
func differential[T any](t *testing.T, what string, data []byte,
	live, ref func([]byte) (*T, error), enc func([]byte, *T) []byte, size func(*T) int) {
	in := append([]byte(nil), data...)
	got, err := live(in)
	want, refErr := ref(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: live decoder says %v, reference says %v", what, err, refErr)
	}
	if err != nil {
		return
	}
	if !sameRecord(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("%s: decoders disagree:\nlive      %+v\nreference %+v", what, got, want)
	}
	frame := enc(nil, got)
	if len(frame) != size(got) {
		t.Fatalf("%s: encoded to %d bytes, FrameSize says %d: %+v", what, len(frame), size(got), got)
	}
	for i := range in {
		in[i] = ^in[i]
	}
	if !bytes.Equal(enc(nil, got), frame) {
		t.Fatalf("%s: decoded record aliases the body it was read from: %+v", what, got)
	}
	back, err := live(frame[4:])
	if err != nil {
		t.Fatalf("%s: re-decode of re-encoded record: %v", what, err)
	}
	if !sameRecord(reflect.ValueOf(back), reflect.ValueOf(got)) {
		t.Fatalf("%s: round trip not identity:\nfirst  %+v\nsecond %+v", what, got, back)
	}
}

// spillEdgeBodies are bodies on both sides of the decoders' inline
// bounds: a search request whose tenant and query fill inlineStrBytes
// exactly and one byte past, and search results of DefaultK and DefaultK+1
// hits in a sub-reply and a composed reply.
func spillEdgeBodies() [][]byte {
	query := strings.Repeat("q", inlineStrBytes-len("acme"))
	hits := func(n int) *SearchResult {
		h := make([]Hit, n)
		for i := range h {
			h[i] = Hit{Doc: int32(i), Score: float64(n - i)}
		}
		return &SearchResult{Hits: h}
	}
	var out [][]byte
	for _, extra := range []int{0, 1} {
		out = append(out,
			AppendRequestFrame(nil, &Request{ID: 1, Kind: KindSearch, Subset: -1, Level: NoLevel, Tenant: "acme",
				Search: &SearchRequest{Query: query + strings.Repeat("x", extra), K: DefaultK}})[4:],
			AppendSubReplyFrame(nil, &SubReply{ID: 1, Kind: KindSearch, Level: NoLevel, Search: hits(DefaultK + extra)})[4:],
			AppendReplyFrame(nil, &Reply{ID: 1, Kind: KindSearch, Level: NoLevel, SubStatus: []uint8{StatusOK},
				Search: hits(DefaultK + extra)})[4:])
	}
	return out
}

// recycledBodies are the earlier sub-replies a body is decoded after,
// into the record each was released from: every kind, traced and
// untraced, arrays longer and shorter than a body's (some of them empty),
// hit and span lists past the record's inline room, and Err set.
func recycledBodies() [][]byte {
	floats := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i) + 0.5
		}
		return out
	}
	spans := func(n int) []Span {
		out := make([]Span, n)
		for i := range out {
			out[i] = Span{Kind: SpanExec, Start: int64(i + 1), Dur: 7, Cost: Cost{CPUNs: 7, Scanned: 3}}
		}
		return out
	}
	hits := make([]Hit, DefaultK+1)
	for i := range hits {
		hits[i] = Hit{Doc: int32(i), Score: float64(-i)}
	}
	var out [][]byte
	for _, rep := range []*SubReply{
		{ID: 1, Kind: KindAgg, Level: 2, SetsProcessed: 9, Spans: spans(ServerSpans),
			Agg: &AggResult{Sum: floats(64), Cnt: floats(64), SumVar: floats(64), CntVar: floats(64)}},
		{ID: 2, Kind: KindAgg, Level: 0, Agg: &AggResult{Sum: floats(1), CntVar: floats(1)}},
		{ID: 3, Kind: KindCF, Level: NoLevel, CF: &CFResult{Num: floats(1), Den: floats(1)}},
		{ID: 9, Kind: KindCF, Level: NoLevel, CF: &CFResult{}},
		{ID: 4, Kind: KindCF, Level: NoLevel, Spans: spans(1), CF: &CFResult{Num: floats(40), Den: floats(40)}},
		{ID: 5, Kind: KindSearch, Level: NoLevel, Spans: spans(ServerSpans + 1), Search: &SearchResult{Hits: hits}},
		{ID: 6, Kind: KindSearch, Level: NoLevel, Search: &SearchResult{Hits: hits[:3]}},
		{ID: 7, Kind: KindAgg, Status: StatusBusy, Err: "server queue full", Level: NoLevel, Spans: spans(ServerSpans)},
		{ID: 8, Kind: KindCF, Status: StatusErr, Err: "component exploded", Level: NoLevel},
	} {
		out = append(out, AppendSubReplyFrame(nil, rep)[4:])
	}
	return out
}

// recycled decodes a sub-reply body again into records released from
// each of recycledBodies' earlier frames — what ReleaseSubReply and
// DecodeSubReply do around the pool — and holds every such decode to the
// reference's: both fail, or both decode to the same record.
func recycled(t *testing.T, data []byte) {
	want, refErr := refDecodeSubReply(data)
	for i, prev := range recycledBodies() {
		old, err := DecodeSubReply(prev)
		if err != nil {
			t.Fatalf("earlier frame %d: %v", i, err)
		}
		rec := recordOf(old)
		rec.clear()
		got, err := rec.decode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoded after frame %d: live decoder says %v, reference says %v", i, err, refErr)
		}
		if err == nil && !sameRecord(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("decoded after frame %d, the record differs from a fresh decode:\nrecycled  %+v\nreference %+v", i, got, want)
		}
	}
}

// recycledRequestBodies are the earlier requests a body is decoded after,
// into the record each was decoded into: every kind, CF lists longer and
// shorter than a body's (some of them empty), and tenants and queries
// that fit the record's inline bytes and that spill past them.
func recycledRequestBodies() [][]byte {
	ratings := func(n int) []Rating {
		out := make([]Rating, n)
		for i := range out {
			out[i] = Rating{Item: int32(3 * i), Score: float64(i) + 0.25}
		}
		return out
	}
	targets := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(7 * i)
		}
		return out
	}
	var out [][]byte
	for _, req := range []*Request{
		{ID: 1, Kind: KindCF, Subset: 2, SLO: SLOExact, Level: NoLevel, Tenant: "acme",
			CF: &CFRequest{Ratings: ratings(200), Targets: targets(64)}},
		{ID: 2, Kind: KindCF, Subset: 0, Level: 1, CF: &CFRequest{Ratings: ratings(1), Targets: targets(1)}},
		{ID: 3, Kind: KindCF, Subset: 1, Level: NoLevel, CF: &CFRequest{}},
		{ID: 4, Kind: KindSearch, Subset: 5, Level: NoLevel, Tenant: strings.Repeat("t", recordStrBytes),
			Search: &SearchRequest{Query: "alpha beta", K: 3}},
		{ID: 5, Kind: KindSearch, Subset: 1, Level: 2, Tenant: "acme",
			Search: &SearchRequest{Query: strings.Repeat("q", 2*recordStrBytes), K: DefaultK}},
		{ID: 6, Kind: KindAgg, Subset: 7, SLO: SLOBounded, MinAccuracy: 0.9, Level: 0, Deadline: 1 << 40, Trace: 9,
			Tenant: "acme", Agg: &AggRequest{Op: 2, Lo: -1, Hi: 1}},
	} {
		out = append(out, AppendRequestFrame(nil, req)[4:])
	}
	return out
}

// recycledRequest decodes a request body again into a RequestRecord that
// decoded each of recycledRequestBodies' earlier frames and was released
// — what a component server does with every sub-request — and holds every
// such decode to the reference's: both fail, or both decode to the same
// request, which shares no memory with the body.
func recycledRequest(t *testing.T, data []byte) {
	want, refErr := refDecodeRequest(data)
	for i, prev := range recycledRequestBodies() {
		var rec RequestRecord
		if _, err := rec.Decode(prev); err != nil {
			t.Fatalf("earlier request %d: %v", i, err)
		}
		rec.Release()
		in := append([]byte(nil), data...)
		got, err := rec.Decode(in)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoded after request %d: record says %v, reference says %v", i, err, refErr)
		}
		if err != nil {
			rec.Release()
			continue
		}
		if !sameRecord(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("decoded after request %d, the record differs from a fresh decode:\nrecycled  %+v\nreference %+v", i, got, want)
		}
		frame := AppendRequestFrame(nil, got)
		for j := range in {
			in[j] = ^in[j]
		}
		if !bytes.Equal(AppendRequestFrame(nil, got), frame) {
			t.Fatalf("decoded after request %d, the request aliases the body it was read from: %+v", i, got)
		}
		rec.Release()
	}
}

// FuzzDecodeDifferential runs every body through all five frame kinds'
// decoders (the header admits at most one) against the reference
// decoders in reference_test.go, a request body a second time into
// request records recycled from other requests (recycledRequest), and a
// sub-reply body a second time into records recycled from other frames
// (recycled).
func FuzzDecodeDifferential(f *testing.F) {
	for _, b := range seedBodies(f) {
		f.Add(b)
	}
	for _, b := range spillEdgeBodies() {
		f.Add(b)
	}
	rng := stats.NewRNG(63)
	for i := 0; i < 12; i++ {
		f.Add(AppendIngestRequestFrame(nil, randIngestRequest(rng))[4:])
		f.Add(AppendIngestReplyFrame(nil, randIngestReply(rng))[4:])
	}
	for _, b := range recycledBodies() {
		f.Add(b)
	}
	for _, b := range recycledRequestBodies() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		differential(t, "request", data, DecodeRequest, refDecodeRequest, AppendRequestFrame, (*Request).FrameSize)
		recycledRequest(t, data)
		differential(t, "sub-reply", data, DecodeSubReply, refDecodeSubReply, AppendSubReplyFrame, (*SubReply).FrameSize)
		recycled(t, data)
		differential(t, "reply", data, DecodeReply, refDecodeReply, AppendReplyFrame, (*Reply).FrameSize)
		differential(t, "ingest request", data, DecodeIngestRequest, refDecodeIngestRequest, AppendIngestRequestFrame, (*IngestRequest).FrameSize)
		differential(t, "ingest reply", data, DecodeIngestReply, refDecodeIngestReply, AppendIngestReplyFrame, (*IngestReply).FrameSize)
	})
}
