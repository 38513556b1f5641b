package wire

import "fmt"

// The reference decoders: the field-by-field Decode* bodies as they
// stood before the one-allocation decode (PR 21), kept verbatim as the
// naive reference the differential fuzz target compares the live
// decoders against — one heap object per record, per payload struct and
// per slice, no boxing, no shared backing arrays. They share the bounds-
// checked reader's primitives with the live decoders, never the boxing
// or group-allocation helpers.

// refDecodeRequest decodes a request frame body.
func refDecodeRequest(body []byte) (*Request, error) {
	r := &reader{b: body}
	if err := checkHeader(r, frameRequest, "request"); err != nil {
		return nil, err
	}
	req := &Request{}
	req.ID = r.u64("id")
	req.Seq = r.u64("seq")
	req.Kind = Kind(r.u8("kind"))
	req.Subset = int32(r.u32("subset"))
	req.SLO = r.u8("slo")
	req.MinAccuracy = r.f64("minAccuracy")
	req.Level = int16(r.u16("level"))
	req.Deadline = int64(r.u64("deadline"))
	req.Trace = r.u64("trace")
	req.Tenant = r.str("tenant")
	switch req.Kind {
	case KindCF:
		cf := &CFRequest{}
		n := r.count(12, "ratings")
		if r.err == nil && n > 0 {
			cf.Ratings = make([]Rating, n)
			for i := range cf.Ratings {
				cf.Ratings[i].Item = int32(r.u32("rating item"))
				cf.Ratings[i].Score = r.f64("rating score")
			}
		}
		cf.Targets = r.i32s("targets")
		req.CF = cf
	case KindSearch:
		req.Search = &SearchRequest{Query: r.str("query"), K: int32(r.u32("k"))}
	case KindAgg:
		req.Agg = &AggRequest{Op: r.u8("op"), Lo: r.f64("lo"), Hi: r.f64("hi")}
	default:
		return nil, fmt.Errorf("wire: unknown payload kind %d", req.Kind)
	}
	if err := r.done("request"); err != nil {
		return nil, err
	}
	req.FrameLen = 4 + len(body)
	return req, nil
}

// refDecodeSubReply decodes a sub-reply frame body.
func refDecodeSubReply(body []byte) (*SubReply, error) {
	r := &reader{b: body}
	if err := checkHeader(r, frameSubReply, "sub-reply"); err != nil {
		return nil, err
	}
	rep := &SubReply{}
	rep.ID = r.u64("id")
	rep.Subset = int32(r.u32("subset"))
	rep.Status = r.u8("status")
	rep.Err = r.str("err")
	rep.Kind = Kind(r.u8("kind"))
	rep.Level = int16(r.u16("level"))
	rep.SetsProcessed = r.u32("sets")
	if n := r.count(spanWireSize, "spans"); r.err == nil && n > 0 {
		rep.Spans = make([]Span, n)
		for i := range rep.Spans {
			rep.Spans[i].Kind = r.u8("span kind")
			rep.Spans[i].Start = int64(r.u64("span start"))
			rep.Spans[i].Dur = int64(r.u64("span dur"))
			rep.Spans[i].Cost.CPUNs = r.u64("span cpu")
			rep.Spans[i].Cost.Scanned = r.u64("span scanned")
			rep.Spans[i].Cost.QueueNs = r.u64("span queue")
			rep.Spans[i].Cost.WireBytes = r.u64("span wire bytes")
		}
	}
	if rep.Status == StatusOK {
		var err error
		rep.CF, rep.Search, rep.Agg, err = refDecodeResultPayload(r, rep.Kind)
		if err != nil {
			return nil, err
		}
	}
	if err := r.done("sub-reply"); err != nil {
		return nil, err
	}
	rep.FrameLen = 4 + len(body)
	return rep, nil
}

// refDecodeReply decodes a composed-reply frame body.
func refDecodeReply(body []byte) (*Reply, error) {
	r := &reader{b: body}
	if err := checkHeader(r, frameReply, "reply"); err != nil {
		return nil, err
	}
	rep := &Reply{}
	rep.ID = r.u64("id")
	rep.Status = r.u8("status")
	rep.Err = r.str("err")
	rep.Kind = Kind(r.u8("kind"))
	rep.SLO = r.u8("slo")
	rep.MinAccuracy = r.f64("minAccuracy")
	rep.Degraded = r.u8("degraded") != 0
	rep.Cached = r.u8("cached") != 0
	rep.Level = int16(r.u16("level"))
	rep.Trace = r.u64("trace")
	if n := r.count(1, "substatus"); r.err == nil && n > 0 {
		rep.SubStatus = append([]uint8(nil), r.take(n, "substatus")...)
	}
	if ReplyCarriesPayload(rep.Status) {
		var err error
		rep.CF, rep.Search, rep.Agg, err = refDecodeResultPayload(r, rep.Kind)
		if err != nil {
			return nil, err
		}
	}
	if err := r.done("reply"); err != nil {
		return nil, err
	}
	return rep, nil
}

func refDecodeResultPayload(r *reader, kind Kind) (*CFResult, *SearchResult, *AggResult, error) {
	switch kind {
	case KindCF:
		return &CFResult{Num: r.f64s("num"), Den: r.f64s("den")}, nil, nil, nil
	case KindSearch:
		sr := &SearchResult{}
		n := r.count(12, "hits")
		if r.err == nil && n > 0 {
			sr.Hits = make([]Hit, n)
			for i := range sr.Hits {
				sr.Hits[i].Doc = int32(r.u32("hit doc"))
				sr.Hits[i].Score = r.f64("hit score")
			}
		}
		return nil, sr, nil, nil
	case KindAgg:
		ar := &AggResult{
			Sum:    r.f64s("sum"),
			Cnt:    r.f64s("cnt"),
			SumVar: r.f64s("sumVar"),
			CntVar: r.f64s("cntVar"),
		}
		return nil, nil, ar, nil
	default:
		return nil, nil, nil, fmt.Errorf("wire: unknown payload kind %d", kind)
	}
}

// refDecodeIngestRequest decodes an ingest-request frame body.
func refDecodeIngestRequest(body []byte) (*IngestRequest, error) {
	r := &reader{b: body}
	if err := checkHeader(r, frameIngest, "ingest"); err != nil {
		return nil, err
	}
	req := &IngestRequest{}
	req.ID = r.u64("id")
	req.Kind = Kind(r.u8("kind"))
	req.Subset = int32(r.u32("subset"))
	req.Trace = r.u64("trace")
	switch req.Kind {
	case KindAgg:
		req.Agg = &AggIngest{Keys: r.i32s("keys"), Vals: r.f64s("vals")}
		if r.err == nil && len(req.Agg.Keys) != len(req.Agg.Vals) {
			return nil, fmt.Errorf("wire: agg ingest shape %d keys, %d vals",
				len(req.Agg.Keys), len(req.Agg.Vals))
		}
	default:
		return nil, fmt.Errorf("wire: unknown payload kind %d", req.Kind)
	}
	if err := r.done("ingest"); err != nil {
		return nil, err
	}
	return req, nil
}

// refDecodeIngestReply decodes an ingest-reply frame body.
func refDecodeIngestReply(body []byte) (*IngestReply, error) {
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
