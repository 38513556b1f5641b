package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"accuracytrader/internal/stats"
)

// randIngestRequest draws a random aggregation append batch.
func randIngestRequest(rng *stats.RNG) *IngestRequest {
	req := &IngestRequest{
		ID:     rng.Uint64(),
		Kind:   KindAgg,
		Subset: int32(rng.Intn(64)) - 1,
		Trace:  rng.Uint64() >> uint(rng.Intn(64)),
		Agg:    &AggIngest{},
	}
	n := rng.Intn(10)
	for i := 0; i < n; i++ {
		req.Agg.Keys = append(req.Agg.Keys, int32(rng.Intn(16)))
		req.Agg.Vals = append(req.Agg.Vals, rng.Norm(0, 1))
	}
	return req
}

func randIngestReply(rng *stats.RNG) *IngestReply {
	rep := &IngestReply{
		ID:       rng.Uint64(),
		Subset:   int32(rng.Intn(64)),
		Status:   uint8(rng.Intn(3)),
		Accepted: uint32(rng.Intn(1000)),
		Epoch:    rng.Uint64() >> 8,
	}
	if rep.Status != IngestOK {
		rep.Err = "shard rejected batch"
	}
	return rep
}

func TestIngestRequestRoundTrip(t *testing.T) {
	rng := stats.NewRNG(51)
	for i := 0; i < 500; i++ {
		req := randIngestRequest(rng)
		got, err := DecodeIngestRequest(body(t, AppendIngestRequestFrame(nil, req)))
		if err != nil {
			t.Fatalf("decode: %v (%+v)", err, req)
		}
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", req, got)
		}
	}
}

func TestIngestReplyRoundTrip(t *testing.T) {
	rng := stats.NewRNG(52)
	for i := 0; i < 500; i++ {
		rep := randIngestReply(rng)
		got, err := DecodeIngestReply(body(t, AppendIngestReplyFrame(nil, rep)))
		if err != nil {
			t.Fatalf("decode: %v (%+v)", err, rep)
		}
		if !reflect.DeepEqual(rep, got) {
			t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", rep, got)
		}
	}
}

// TestIngestTruncatedFramesError asserts every strict prefix of a valid
// ingest body decodes to a clean error.
func TestIngestTruncatedFramesError(t *testing.T) {
	rng := stats.NewRNG(53)
	for i := 0; i < 50; i++ {
		reqBody := body(t, AppendIngestRequestFrame(nil, randIngestRequest(rng)))
		for cut := 0; cut < len(reqBody); cut++ {
			if _, err := DecodeIngestRequest(reqBody[:cut]); err == nil {
				t.Fatalf("ingest prefix of %d/%d bytes decoded without error", cut, len(reqBody))
			}
		}
		repBody := body(t, AppendIngestReplyFrame(nil, randIngestReply(rng)))
		for cut := 0; cut < len(repBody); cut++ {
			if _, err := DecodeIngestReply(repBody[:cut]); err == nil {
				t.Fatalf("ingest-reply prefix of %d/%d bytes decoded without error", cut, len(repBody))
			}
		}
	}
}

// TestIngestCorruptFramesError covers the targeted corruption cases for
// the append op: inflated counts, unknown kinds, shape mismatches,
// wrong frame kinds, and trailing bytes.
func TestIngestCorruptFramesError(t *testing.T) {
	agg := &IngestRequest{Kind: KindAgg, Subset: 1,
		Agg: &AggIngest{Keys: []int32{0, 1}, Vals: []float64{1, 2}}}
	good := body(t, AppendIngestRequestFrame(nil, agg))

	mut := func(idx int, v byte) []byte {
		cp := append([]byte(nil), good...)
		cp[idx] = v
		return cp
	}
	// Fixed ingest header: version, frame kind, id, kind, subset, trace.
	hdr := 2 + 8 + 1 + 4 + 8
	if _, err := DecodeIngestRequest(mut(1, frameReply)); err == nil || !strings.Contains(err.Error(), "frame kind") {
		t.Fatalf("bad frame kind: %v", err)
	}
	// CF and search have no live store, so their kinds are as unknown
	// to the append op as an unassigned one.
	for _, k := range []byte{77, byte(KindCF), byte(KindSearch)} {
		if _, err := DecodeIngestRequest(mut(10, k)); err == nil || !strings.Contains(err.Error(), "unknown payload kind") {
			t.Fatalf("unknown kind %d: %v", k, err)
		}
	}
	if _, err := DecodeIngestRequest(append(append([]byte(nil), good...), 0xcd)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: %v", err)
	}
	// Inflated key count must fail validation, not allocate.
	cp := append([]byte(nil), good...)
	cp[hdr], cp[hdr+1] = 0xff, 0xff
	if _, err := DecodeIngestRequest(cp); err == nil {
		t.Fatal("inflated agg key count must error")
	}
	// A keys/vals shape mismatch is rejected even when both arrays
	// decode cleanly: drop the last val by patching both the vals count
	// and the frame length.
	cp = append([]byte(nil), good...)
	cp = cp[:len(cp)-8]
	cp[hdr+4+2*4] = 1 // vals count (after keys count + 2 keys)
	if _, err := DecodeIngestRequest(cp); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("shape mismatch: %v", err)
	}
}

// TestIngestVersionSkew asserts a v4 client talking to a v5 server (and
// vice versa) gets the typed *VersionError on ingest frames — both on
// full decode and on the FrameKind demux path — so version skew during
// a rollout degrades to a clean, retryable rejection.
func TestIngestVersionSkew(t *testing.T) {
	req := &IngestRequest{Kind: KindAgg, Agg: &AggIngest{Keys: []int32{3}, Vals: []float64{7}}}
	good := body(t, AppendIngestRequestFrame(nil, req))
	v4 := append([]byte(nil), good...)
	v4[0] = 4
	var ve *VersionError
	if _, err := DecodeIngestRequest(v4); !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %v", err)
	}
	if ve.Got != 4 || ve.Want != Version {
		t.Fatalf("VersionError = %+v", ve)
	}
	if _, err := FrameKind(v4); !errors.As(err, &ve) {
		t.Fatalf("FrameKind: want *VersionError, got %v", err)
	}
	rep := &IngestReply{ID: 1, Status: IngestOK, Accepted: 1, Epoch: 9}
	repBody := body(t, AppendIngestReplyFrame(nil, rep))
	future := append([]byte(nil), repBody...)
	future[0] = Version + 1
	if _, err := DecodeIngestReply(future); !errors.As(err, &ve) {
		t.Fatalf("future version: want *VersionError, got %v", err)
	}
}

// TestIngestFrameKindDemux pins the demux contract connections rely on:
// query and ingest frames on the same connection are told apart by
// FrameKind without decoding.
func TestIngestFrameKindDemux(t *testing.T) {
	q := body(t, AppendRequestFrame(nil, &Request{Kind: KindAgg, Agg: &AggRequest{Op: 1, Lo: 0, Hi: 1}}))
	in := body(t, AppendIngestRequestFrame(nil, &IngestRequest{Kind: KindAgg, Agg: &AggIngest{}}))
	rep := body(t, AppendIngestReplyFrame(nil, &IngestReply{ID: 2}))
	for _, c := range []struct {
		body []byte
		want byte
	}{{q, FrameRequest}, {in, FrameIngest}, {rep, FrameIngestReply}} {
		k, err := FrameKind(c.body)
		if err != nil || k != c.want {
			t.Fatalf("FrameKind = %d, %v (want %d)", k, err, c.want)
		}
	}
	// An ingest body handed to the query decoder errors instead of
	// misparsing.
	if _, err := DecodeRequest(in); err == nil {
		t.Fatal("ingest frame decoded as a query request")
	}
}

// FuzzDecodeIngestRequest asserts ingest decoding never panics and that
// whatever decodes re-encodes to the identical body.
func FuzzDecodeIngestRequest(f *testing.F) {
	rng := stats.NewRNG(61)
	for i := 0; i < 12; i++ {
		f.Add(AppendIngestRequestFrame(nil, randIngestRequest(rng))[4:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeIngestRequest(data)
		if err != nil {
			return
		}
		re := AppendIngestRequestFrame(nil, req)[4:]
		back, err := DecodeIngestRequest(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded ingest request: %v", err)
		}
		if re2 := AppendIngestRequestFrame(nil, back)[4:]; !bytes.Equal(re, re2) {
			t.Fatalf("re-encode not identity:\nfirst  %+v\nsecond %+v", req, back)
		}
	})
}

// FuzzDecodeIngestReply is the reply half of the ingest identity fuzz.
func FuzzDecodeIngestReply(f *testing.F) {
	rng := stats.NewRNG(62)
	for i := 0; i < 12; i++ {
		f.Add(AppendIngestReplyFrame(nil, randIngestReply(rng))[4:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeIngestReply(data)
		if err != nil {
			return
		}
		re := AppendIngestReplyFrame(nil, rep)[4:]
		back, err := DecodeIngestReply(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded ingest reply: %v", err)
		}
		if re2 := AppendIngestReplyFrame(nil, back)[4:]; !bytes.Equal(re, re2) {
			t.Fatalf("re-encode not identity:\nfirst  %+v\nsecond %+v", rep, back)
		}
	})
}
