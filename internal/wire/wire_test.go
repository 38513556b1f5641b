package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"accuracytrader/internal/stats"
)

// randRequest draws a random request of any payload kind.
func randRequest(rng *stats.RNG) *Request {
	req := &Request{
		ID:          rng.Uint64(),
		Seq:         rng.Uint64(),
		Subset:      int32(rng.Intn(64)) - 1,
		SLO:         []uint8{SLOExact, SLOBounded, SLOBestEffort, SLONone}[rng.Intn(4)],
		MinAccuracy: rng.Float64(),
		Level:       int16(rng.Intn(6)) - 1,
		Deadline:    int64(rng.Uint64() >> 1),
		Trace:       rng.Uint64() >> uint(rng.Intn(64)), // often small, sometimes 0
		Tenant:      []string{"", "acme", "umbra", "wayne-enterprises"}[rng.Intn(4)],
	}
	switch Kind(rng.Intn(3)) {
	case KindCF:
		req.Kind = KindCF
		cf := &CFRequest{}
		for i := 0; i < rng.Intn(8); i++ {
			cf.Ratings = append(cf.Ratings, Rating{Item: int32(rng.Intn(1000)), Score: rng.Float64() * 5})
		}
		for i := 0; i < rng.Intn(8); i++ {
			cf.Targets = append(cf.Targets, int32(rng.Intn(1000)))
		}
		req.CF = cf
	case KindSearch:
		req.Kind = KindSearch
		words := []string{"alpha", "beta", "gamma", "delta", ""}
		req.Search = &SearchRequest{Query: words[rng.Intn(len(words))], K: int32(rng.Intn(20))}
	default:
		req.Kind = KindAgg
		req.Agg = &AggRequest{Op: uint8(rng.Intn(3)), Lo: rng.Norm(0, 1), Hi: rng.Norm(0, 1) + 5}
	}
	return req
}

func randF64s(rng *stats.RNG, n int) []float64 {
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Norm(0, 1)
	}
	return out
}

func randSubReply(rng *stats.RNG) *SubReply {
	rep := &SubReply{
		ID:            rng.Uint64(),
		Subset:        int32(rng.Intn(64)),
		Status:        uint8(rng.Intn(3)),
		Kind:          Kind(rng.Intn(3)),
		Level:         int16(rng.Intn(6)) - 1,
		SetsProcessed: uint32(rng.Intn(100)),
	}
	if rep.Status == StatusErr {
		rep.Err = "component exploded"
	}
	for i := 0; i < rng.Intn(3); i++ {
		rep.Spans = append(rep.Spans, Span{
			Kind:  uint8(rng.Intn(2)),
			Start: int64(rng.Uint64() >> 1),
			Dur:   int64(rng.Intn(1_000_000_000)),
			Cost: Cost{
				CPUNs:     uint64(rng.Intn(1_000_000)),
				Scanned:   uint64(rng.Intn(100_000)),
				QueueNs:   uint64(rng.Intn(1_000_000)),
				WireBytes: uint64(rng.Intn(1 << 16)),
			},
		})
	}
	if rep.Status == StatusOK {
		n := 1 + rng.Intn(6)
		switch rep.Kind {
		case KindCF:
			rep.CF = &CFResult{Num: randF64s(rng, n), Den: randF64s(rng, n)}
		case KindSearch:
			sr := &SearchResult{}
			for i := 0; i < n; i++ {
				sr.Hits = append(sr.Hits, Hit{Doc: int32(rng.Intn(5000)), Score: rng.Float64()})
			}
			rep.Search = sr
		default:
			rep.Agg = &AggResult{
				Sum: randF64s(rng, n), Cnt: randF64s(rng, n),
				SumVar: randF64s(rng, n), CntVar: randF64s(rng, n),
			}
		}
	}
	return rep
}

func randReply(rng *stats.RNG) *Reply {
	rep := &Reply{
		ID:          rng.Uint64(),
		Status:      uint8(rng.Intn(5)),
		Kind:        Kind(rng.Intn(3)),
		SLO:         []uint8{SLOExact, SLOBounded, SLOBestEffort, SLONone}[rng.Intn(4)],
		MinAccuracy: rng.Float64(),
		Degraded:    rng.Intn(2) == 0,
		Cached:      rng.Intn(2) == 0,
		Level:       int16(rng.Intn(6)) - 1,
		Trace:       rng.Uint64() >> uint(rng.Intn(64)),
	}
	for i := 0; i < rng.Intn(8); i++ {
		rep.SubStatus = append(rep.SubStatus, uint8(rng.Intn(4)))
	}
	if rep.Status == ReplyErr {
		rep.Err = "compose failed"
	}
	if rep.Status == ReplyUnavailable {
		rep.Err = "accuracy floor unreachable"
	}
	if ReplyCarriesPayload(rep.Status) {
		n := 1 + rng.Intn(6)
		switch rep.Kind {
		case KindCF:
			rep.CF = &CFResult{Num: randF64s(rng, n), Den: randF64s(rng, n)}
		case KindSearch:
			sr := &SearchResult{}
			for i := 0; i < n; i++ {
				sr.Hits = append(sr.Hits, Hit{Doc: int32(rng.Intn(5000)), Score: rng.Float64()})
			}
			rep.Search = sr
		default:
			rep.Agg = &AggResult{
				Sum: randF64s(rng, n), Cnt: randF64s(rng, n),
				SumVar: randF64s(rng, n), CntVar: randF64s(rng, n),
			}
		}
	}
	return rep
}

// body strips the length prefix from a framed encoding.
func body(t *testing.T, frame []byte) []byte {
	t.Helper()
	got, err := ReadFrame(bytes.NewReader(frame), nil, 0)
	if err != nil {
		t.Fatalf("ReadFrame on own encoding: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	rng := stats.NewRNG(41)
	for i := 0; i < 500; i++ {
		req := randRequest(rng)
		frame := AppendRequestFrame(nil, req)
		got, err := DecodeRequest(body(t, frame))
		if err != nil {
			t.Fatalf("decode: %v (%+v)", err, req)
		}
		if got.FrameLen != len(frame) {
			t.Fatalf("FrameLen = %d, want %d", got.FrameLen, len(frame))
		}
		got.FrameLen = 0 // receiver-side metadata, not part of the round trip
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", req, got)
		}
	}
}

func TestSubReplyRoundTrip(t *testing.T) {
	rng := stats.NewRNG(42)
	for i := 0; i < 500; i++ {
		rep := randSubReply(rng)
		frame := AppendSubReplyFrame(nil, rep)
		got, err := DecodeSubReply(body(t, frame))
		if err != nil {
			t.Fatalf("decode: %v (%+v)", err, rep)
		}
		if got.FrameLen != len(frame) {
			t.Fatalf("FrameLen = %d, want %d", got.FrameLen, len(frame))
		}
		got.FrameLen = 0 // receiver-side metadata, not part of the round trip
		if !reflect.DeepEqual(rep, got) {
			t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", rep, got)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	rng := stats.NewRNG(43)
	for i := 0; i < 500; i++ {
		rep := randReply(rng)
		got, err := DecodeReply(body(t, AppendReplyFrame(nil, rep)))
		if err != nil {
			t.Fatalf("decode: %v (%+v)", err, rep)
		}
		if !reflect.DeepEqual(rep, got) {
			t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", rep, got)
		}
	}
}

// TestDecodeRequestWith: the caller's record comes back zeroed beside a
// request equal to DecodeRequest's, for every payload kind and for
// strings on both sides of the inline bound, and nothing decoded changes
// when the body is overwritten afterwards.
func TestDecodeRequestWith(t *testing.T) {
	type record struct {
		a, b uint64
		s    string
	}
	long := strings.Repeat("q", inlineStrBytes+1)
	for _, req := range []*Request{
		{ID: 1, Kind: KindSearch, Search: &SearchRequest{Query: "alpha beta", K: 3}},
		{ID: 2, Kind: KindSearch, Tenant: "acme", Search: &SearchRequest{Query: long[:inlineStrBytes-4]}},
		{ID: 3, Kind: KindSearch, Tenant: "acme", Search: &SearchRequest{Query: long[:inlineStrBytes-3]}},
		{ID: 4, Kind: KindSearch, Tenant: long, Search: &SearchRequest{Query: "short"}},
		{ID: 5, Kind: KindCF, Tenant: "acme", CF: &CFRequest{Ratings: []Rating{{Item: 1, Score: 2}}, Targets: []int32{3}}},
		{ID: 6, Kind: KindAgg, Tenant: "acme", Agg: &AggRequest{Op: 1, Hi: 9}},
	} {
		b := AppendRequestFrame(nil, req)[4:]
		want, err := DecodeRequest(b)
		if err != nil {
			t.Fatal(err)
		}
		got, x, err := DecodeRequestWith[record](b)
		if err != nil {
			t.Fatal(err)
		}
		if *x != (record{}) {
			t.Fatalf("request %d: caller record %+v, want zero", req.ID, *x)
		}
		for i := range b {
			b[i] = 0xff
		}
		if !reflect.DeepEqual(got, want) || got.Tenant != req.Tenant ||
			(req.Search != nil && got.Search.Query != req.Search.Query) {
			t.Fatalf("request %d: DecodeRequestWith %+v, DecodeRequest %+v, sent %+v", req.ID, got, want, req)
		}
	}
	if _, x, err := DecodeRequestWith[record]([]byte{Version, frameReply}); err == nil || x != nil {
		t.Fatalf("a reply frame decoded as a request: record %v, err %v", x, err)
	}
}

// TestCheckPayload: a request passes only with the payload of its kind.
func TestCheckPayload(t *testing.T) {
	for _, tc := range []struct {
		req *Request
		ok  bool
	}{
		{&Request{Kind: KindCF, CF: &CFRequest{}}, true},
		{&Request{Kind: KindSearch, Search: &SearchRequest{}}, true},
		{&Request{Kind: KindAgg, Agg: &AggRequest{}}, true},
		{&Request{Kind: KindCF, Search: &SearchRequest{}}, false},
		{&Request{Kind: KindSearch}, false},
		{&Request{Kind: KindAgg, CF: &CFRequest{}}, false},
		{&Request{Kind: 7, Agg: &AggRequest{}}, false},
	} {
		if err := tc.req.CheckPayload(); (err == nil) != tc.ok {
			t.Errorf("kind %d, payloads cf %v search %v agg %v: CheckPayload = %v", tc.req.Kind,
				tc.req.CF != nil, tc.req.Search != nil, tc.req.Agg != nil, err)
		}
	}
}

// TestTruncatedFramesError asserts every strict prefix of a valid body
// decodes to a clean error — never a panic, never a silent success.
func TestTruncatedFramesError(t *testing.T) {
	rng := stats.NewRNG(44)
	for i := 0; i < 50; i++ {
		reqBody := body(t, AppendRequestFrame(nil, randRequest(rng)))
		for cut := 0; cut < len(reqBody); cut++ {
			if _, err := DecodeRequest(reqBody[:cut]); err == nil {
				t.Fatalf("request prefix of %d/%d bytes decoded without error", cut, len(reqBody))
			}
		}
		repBody := body(t, AppendSubReplyFrame(nil, randSubReply(rng)))
		for cut := 0; cut < len(repBody); cut++ {
			if _, err := DecodeSubReply(repBody[:cut]); err == nil {
				t.Fatalf("sub-reply prefix of %d/%d bytes decoded without error", cut, len(repBody))
			}
		}
		comBody := body(t, AppendReplyFrame(nil, randReply(rng)))
		for cut := 0; cut < len(comBody); cut++ {
			if _, err := DecodeReply(comBody[:cut]); err == nil {
				t.Fatalf("reply prefix of %d/%d bytes decoded without error", cut, len(comBody))
			}
		}
	}
}

// TestCorruptFramesError covers the targeted corruption cases: wrong
// version, wrong frame kind, unknown payload kind, inflated counts,
// trailing bytes, and an oversized or undersized length prefix.
func TestCorruptFramesError(t *testing.T) {
	req := &Request{Kind: KindAgg, Agg: &AggRequest{Op: 1, Lo: 0, Hi: 10}}
	good := body(t, AppendRequestFrame(nil, req))

	mut := func(idx int, v byte) []byte {
		cp := append([]byte(nil), good...)
		cp[idx] = v
		return cp
	}
	if _, err := DecodeRequest(mut(0, 99)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}
	if _, err := DecodeRequest(mut(1, frameReply)); err == nil || !strings.Contains(err.Error(), "frame kind") {
		t.Fatalf("bad frame kind: %v", err)
	}
	if _, err := DecodeRequest(mut(18, 77)); err == nil || !strings.Contains(err.Error(), "unknown payload kind") {
		t.Fatalf("unknown kind: %v", err)
	}
	if _, err := DecodeRequest(append(append([]byte(nil), good...), 0xab)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: %v", err)
	}

	// A CF request whose declared rating count exceeds the frame must
	// fail the count validation, not attempt the allocation.
	cfReq := &Request{Kind: KindCF, CF: &CFRequest{Targets: []int32{1}}}
	cfBody := body(t, AppendRequestFrame(nil, cfReq))
	// ratings count sits right after the fixed request header
	// (version, frame kind, id, seq, kind, subset, slo, minAccuracy,
	// level, deadline, trace, tenant — empty, so just its u32 length).
	hdr := 2 + 8 + 8 + 1 + 4 + 1 + 8 + 2 + 8 + 8 + 4
	cp := append([]byte(nil), cfBody...)
	cp[hdr] = 0xff
	cp[hdr+1] = 0xff
	if _, err := DecodeRequest(cp); err == nil {
		t.Fatal("inflated count must error")
	}

	// Length prefix outside bounds.
	frame := AppendRequestFrame(nil, req)
	frame[0], frame[1], frame[2], frame[3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadFrame(bytes.NewReader(frame), nil, 1024); err == nil {
		t.Fatal("oversized length prefix must error")
	}
	frame = AppendRequestFrame(nil, req)
	frame[0], frame[1], frame[2], frame[3] = 1, 0, 0, 0
	if _, err := ReadFrame(bytes.NewReader(frame), nil, 0); err == nil {
		t.Fatal("undersized length prefix must error")
	}

	// A frame cut off mid-body is an unexpected EOF.
	frame = AppendRequestFrame(nil, req)
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-3]), nil, 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-body EOF: %v", err)
	}
}

// TestVersionMismatchTyped asserts a peer speaking another protocol
// version yields a *VersionError that survives errors.As through
// wrapping — the clean signal a v2 peer gets instead of a parse
// failure.
func TestVersionMismatchTyped(t *testing.T) {
	req := &Request{Kind: KindAgg, Agg: &AggRequest{Op: 1, Lo: 0, Hi: 10}}
	good := body(t, AppendRequestFrame(nil, req))
	v2 := append([]byte(nil), good...)
	v2[0] = 2
	_, err := DecodeRequest(v2)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %v", err)
	}
	if ve.Got != 2 || ve.Want != Version {
		t.Fatalf("VersionError = %+v", ve)
	}
	wrapped := fmt.Errorf("peer 3: decode sub-reply: %w", err)
	if !errors.As(wrapped, &ve) {
		t.Fatal("VersionError lost through wrapping")
	}
	if _, err := FrameKind(v2); !errors.As(err, &ve) {
		t.Fatalf("FrameKind: want *VersionError, got %v", err)
	}
	if !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), fmt.Sprintf("want %d", Version)) {
		t.Fatalf("message: %q", err.Error())
	}
}

// TestCorruptSpanFields targets the v3 sub-reply span block: inflated
// span counts must fail validation without allocating, and every
// truncation inside the span block must error cleanly.
func TestCorruptSpanFields(t *testing.T) {
	rep := &SubReply{
		ID: 9, Subset: 1, Status: StatusOK, Kind: KindAgg, Level: 2, SetsProcessed: 4,
		Spans: []Span{
			{Kind: SpanQueue, Start: 100, Dur: 50, Cost: Cost{QueueNs: 50}},
			{Kind: SpanExec, Start: 150, Dur: 75, Cost: Cost{CPUNs: 75, Scanned: 1000, WireBytes: 64}},
		},
		Agg: &AggResult{Sum: []float64{1}, Cnt: []float64{2}, SumVar: []float64{0}, CntVar: []float64{0}},
	}
	good := body(t, AppendSubReplyFrame(nil, rep))

	// The span count sits after: version, frame kind, id, subset,
	// status, err (u32 len, empty), kind, level, sets.
	off := 2 + 8 + 4 + 1 + 4 + 1 + 2 + 4
	if got, err := DecodeSubReply(good); err != nil || len(got.Spans) != 2 {
		t.Fatalf("sanity: %v, spans=%d", err, len(got.Spans))
	}
	cp := append([]byte(nil), good...)
	cp[off] = 0xff
	cp[off+1] = 0xff
	if _, err := DecodeSubReply(cp); err == nil || !strings.Contains(err.Error(), "spans") {
		t.Fatalf("inflated span count: %v", err)
	}
	// Truncations through the whole span block.
	for cut := off; cut < off+4+2*49; cut++ {
		if _, err := DecodeSubReply(good[:cut]); err == nil {
			t.Fatalf("span-block prefix of %d bytes decoded without error", cut)
		}
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	req := &Request{Kind: KindAgg, Agg: &AggRequest{Op: 0, Lo: 1, Hi: 2}}
	frame := AppendRequestFrame(nil, req)
	buf := make([]byte, 0, 4096)
	got, err := ReadFrame(bytes.NewReader(frame), buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("ReadFrame allocated although the buffer had capacity")
	}
}

// stallingReader hands out its bytes, then blocks in Read, closing
// stalled, until release is closed: a peer that sent a frame's start
// and went quiet.
type stallingReader struct {
	data    []byte
	stalled chan struct{}
	release chan struct{}
}

func (r *stallingReader) Read(p []byte) (int, error) {
	if len(r.data) > 0 {
		n := copy(p, r.data)
		r.data = r.data[n:]
		return n, nil
	}
	close(r.stalled)
	<-r.release
	return 0, io.EOF
}

// TestReadFrameStalledPeerPinsOneChunk sends a header claiming
// MaxFrame and 3 body bytes, then stalls: while ReadFrame waits for the
// rest, it holds at most one frameChunk (plus 8 KiB of slack for the
// reader goroutine and the length prefix), not the 8 MiB claimed.
func TestReadFrameStalledPeerPinsOneChunk(t *testing.T) {
	const slack = 8 << 10
	r := &stallingReader{
		data:    binary.LittleEndian.AppendUint32(nil, MaxFrame),
		stalled: make(chan struct{}),
		release: make(chan struct{}),
	}
	r.data = append(r.data, 1, 2, 3)
	done := make(chan error, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		_, err := ReadFrame(r, nil, 0)
		done <- err
	}()
	<-r.stalled
	runtime.ReadMemStats(&after)
	close(r.release)
	if err := <-done; err != io.ErrUnexpectedEOF {
		t.Fatalf("stalled body ended by EOF: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > frameChunk+slack {
		t.Fatalf("a stalled %d-byte claim with 3 bytes sent allocated %d bytes, bound %d", MaxFrame, got, frameChunk+slack)
	}
}

// TestReadFrameLargeBody reads bodies past frameChunk, delivered a few
// bytes per Read, into a fresh buffer and into one with room: both
// arrive whole, the fresh one no larger than the body, and a body cut
// short is an unexpected EOF.
func TestReadFrameLargeBody(t *testing.T) {
	for _, n := range []int{frameChunk + 1, 3*frameChunk + 17, 5 * frameChunk} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		frame := append(binary.LittleEndian.AppendUint32(nil, uint32(n)), body...)
		got, err := ReadFrame(iotest.HalfReader(bytes.NewReader(frame)), nil, 0)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%d-byte body: %v, read back equal %v", n, err, bytes.Equal(got, body))
		}
		if cap(got) != n {
			t.Fatalf("%d-byte body read into %d bytes of capacity", n, cap(got))
		}
		room := make([]byte, 0, n)
		got, err = ReadFrame(bytes.NewReader(frame), room, 0)
		if err != nil || !bytes.Equal(got, body) || &got[0] != &room[:1][0] {
			t.Fatalf("%d-byte body into a buffer with room: %v, equal %v", n, err, bytes.Equal(got, body))
		}
		if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-3]), nil, 0); err != io.ErrUnexpectedEOF {
			t.Fatalf("%d-byte body cut 3 bytes short: %v", n, err)
		}
	}
}

func TestFrameKind(t *testing.T) {
	req := &Request{Kind: KindSearch, Search: &SearchRequest{Query: "q", K: 3}}
	b := body(t, AppendRequestFrame(nil, req))
	k, err := FrameKind(b)
	if err != nil || k != frameRequest {
		t.Fatalf("FrameKind = %d, %v", k, err)
	}
	if _, err := FrameKind([]byte{Version}); err == nil {
		t.Fatal("short header must error")
	}
}
