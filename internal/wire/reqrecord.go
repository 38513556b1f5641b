package wire

// recordStrBytes is how many bytes of a request's tenant and search
// query, together, a RequestRecord holds inline.
const recordStrBytes = 48

// maxKeptRatings bounds the ratings and targets backings a released
// record keeps: one outsized CF request does not pin its lists.
const maxKeptRatings = 1 << 12

// RequestRecord is a reusable request decode target: the request, the
// payload struct of every kind, the backings a CF request's ratings and
// targets are decoded into, and recordStrBytes of inline bytes for the
// tenant and a search query. Every request has this one shape, so a
// record released from a request of one kind decodes the next request of
// any kind, and the backings stay with it across uses: a warm record
// decodes a frame without allocating. Only a tenant and query longer
// than its inline bytes, together, and CF lists longer than its backings
// allocate.
//
// A component server decodes each sub-request into one (netsvc keeps the
// records in a pool beside the jobs that serve them), because nothing
// reads a sub-request once its reply frame is written. A request that
// may be kept — a front server's, which the result cache and the auditor
// hold — is decoded with DecodeRequestWith instead.
type RequestRecord struct {
	req     Request
	cf      CFRequest
	search  SearchRequest
	agg     AggRequest
	ratings []Rating
	targets []int32
	inline  [recordStrBytes]byte
}

// Decode decodes a request frame body into the record and returns its
// request, which with its payload, slices and strings is valid until the
// record is released. Nothing in it aliases body. The field-by-field
// parse is DecodeRequestWith's.
func (rec *RequestRecord) Decode(body []byte) (*Request, error) {
	req := &rec.req
	*req = Request{}
	r := &reader{b: body}
	tenant, err := r.requestHead(req)
	if err != nil {
		return nil, err
	}
	switch req.Kind {
	case KindCF:
		req.CF = &rec.cf
	case KindSearch:
		req.Search = &rec.search
	default: // KindAgg: requestHead refused every other kind
		req.Agg = &rec.agg
	}
	rec.ratings, rec.targets, err = r.requestPayload(req, tenant, rec.inline[:], rec.ratings, rec.targets)
	if err != nil {
		return nil, err
	}
	return req, nil
}

// Release ends the record's current use: its request, payload and
// strings must not be read again, and the record may decode the next
// frame. Under the race detector the record is poisoned instead of
// cleared (poison_race.go), so a use after release reads values no
// request carries, and a second release panics.
func (rec *RequestRecord) Release() { rec.release() }

// clear empties the record for its next use, keeping its backings
// (unless outsized): no field of the last request, nor a string it
// spilled, survives.
func (rec *RequestRecord) clear() {
	ratings, targets := rec.ratings, rec.targets
	if cap(ratings) > maxKeptRatings {
		ratings = nil
	}
	if cap(targets) > maxKeptRatings {
		targets = nil
	}
	*rec = RequestRecord{ratings: ratings, targets: targets}
}
