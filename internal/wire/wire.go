package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Version is the protocol version stamped into every frame. A peer
// speaking a different version is rejected at decode time with a typed
// *VersionError instead of being misparsed. Version 2 added the
// composed reply's Cached byte; version 3 added the propagated trace ID
// (Request.Trace, Reply.Trace) and server-side spans (SubReply.Spans);
// version 4 added the degraded/unavailable composed-reply statuses
// (ReplyDegraded carries a payload, so the payload-presence rule
// changed); version 5 added the streaming-ingest append op (the
// IngestRequest/IngestReply frame kinds); version 6 added the tenant ID
// on requests (Request.Tenant) and the per-span resource counters
// (Span.Cost), so component-side costs travel back inside replies the
// same way trace spans do.
const Version = 6

// VersionError reports a frame stamped with a different protocol
// version — a v2 (or future) peer on the other end of the connection.
type VersionError struct {
	Got, Want uint8
}

// Error describes the mismatch.
func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: protocol version %d, want %d", e.Got, e.Want)
}

// Frame kinds: what a frame body contains.
const (
	frameRequest     = 1
	frameSubReply    = 2
	frameReply       = 3
	frameIngest      = 4
	frameIngestReply = 5
)

// Exported frame kinds, for demultiplexing connections that carry both
// query and ingest traffic (compare against FrameKind's result).
const (
	FrameRequest     = frameRequest
	FrameSubReply    = frameSubReply
	FrameReply       = frameReply
	FrameIngest      = frameIngest
	FrameIngestReply = frameIngestReply
)

// Kind selects which application payload a request or result carries.
type Kind uint8

// The application payload kinds, one per workload.
const (
	KindCF Kind = iota
	KindSearch
	KindAgg
)

// String returns the workload name.
func (k Kind) String() string {
	switch k {
	case KindCF:
		return "cf"
	case KindSearch:
		return "search"
	default:
		return "agg"
	}
}

// SLO classes on the wire. They mirror frontend.SLOKind with an extra
// sentinel for requests that did not pass through a frontend.
const (
	SLOExact      = 0
	SLOBounded    = 1
	SLOBestEffort = 2
	SLONone       = 0xff
)

// Sub-operation statuses (SubReply.Status and Reply.SubStatus entries).
const (
	StatusOK      = 0
	StatusErr     = 1
	StatusSkipped = 2 // deadline passed before the work ran (or reply arrived)
	StatusBusy    = 3 // shed at an outstanding-window or server queue bound
)

// Reply statuses for the composed reply.
const (
	ReplyOK       = 0
	ReplyRejected = 1 // shed by frontend admission
	ReplyErr      = 2
	// ReplyDegraded is a served answer composed over missing strata:
	// the payload is present, its bounds were widened for the absent
	// components, and the reported accuracy still cleared the request's
	// floor (trivially so for BestEffort).
	ReplyDegraded = 3
	// ReplyUnavailable is the typed rejection of a Bounded request
	// whose discounted accuracy under component failure could no longer
	// clear MinAccuracy (or an Exact request that lost a component):
	// the honest refusal instead of a silently skewed answer.
	ReplyUnavailable = 4
)

// ReplyCarriesPayload reports whether a composed reply with the given
// status encodes a result payload (OK and Degraded do; the rejection
// and error statuses do not).
func ReplyCarriesPayload(status uint8) bool {
	return status == ReplyOK || status == ReplyDegraded
}

// NoLevel is the Level value of a request that carries no ladder level
// (handlers serve their finest synopsis).
const NoLevel = -1

// Rating is one (item, score) pair of a CF request, mirroring
// cf.Rating without importing the application package: the codec stays
// a leaf.
type Rating struct {
	Item  int32
	Score float64
}

// Hit is one (doc, score) pair of a search result.
type Hit struct {
	Doc   int32
	Score float64
}

// CFRequest asks for rating predictions: the active user's known
// ratings and the target items.
type CFRequest struct {
	Ratings []Rating
	Targets []int32
}

// SearchRequest asks for the top-K pages matching a query string.
type SearchRequest struct {
	Query string
	K     int32 // 0: DefaultK
}

// DefaultK is the search hit count of a request that names none, and the
// number of hits a SearchPayload holds in its own heap object.
const DefaultK = 10

// AggRequest asks for a filtered per-group aggregate: Op(value) GROUP
// BY key over rows with value in [Lo, Hi). Op values mirror agg.Op.
type AggRequest struct {
	Op     uint8
	Lo, Hi float64
}

// CFResult is a CF partial result: per-target weighted deviation sums
// and weight normalizers. Partials merge by addition.
type CFResult struct {
	Num []float64
	Den []float64
}

// SearchResult is a ranked hit list. Component servers return
// shard-local doc ids; composed replies carry globalized ids.
type SearchResult struct {
	Hits []Hit
}

// SearchPayload is a search result with room for DefaultK hits in the
// same object: the payload struct of every search sub-reply and composed
// reply — the decoders box it beside the record, a component's sub-reply
// and ComposeSearch's merge are built in one. A longer hit list spills to
// a slice of its own.
type SearchPayload struct {
	SearchResult
	inline [DefaultK]Hit
}

// Init empties the hit list into the payload's inline array and returns
// the result, ready for hits to be appended.
func (p *SearchPayload) Init() *SearchResult {
	p.Hits = p.inline[:0]
	return &p.SearchResult
}

// AggResult is an aggregation partial result: per-key estimated SUM
// and COUNT with estimator variances. Partials merge by addition, and
// keeping the variances makes the composed reply bounds-aware.
type AggResult struct {
	Sum    []float64
	Cnt    []float64
	SumVar []float64
	CntVar []float64
}

// Request is one sub-operation sent from an aggregator to a component
// server — or, with Subset < 0, a whole-service request sent from a
// client to an aggregator. It carries everything a hop needs to stop
// work when the budget is gone: the SLO class, the ladder level the
// frontend selected, and the absolute deadline.
type Request struct {
	ID uint64
	// Seq correlates a sub-operation with its parent whole-service
	// request: the aggregator stamps each sub-request's Seq with the
	// parent's ID, so component-side logs, traces and interference
	// models can key on the request rather than the sub-operation.
	Seq    uint64
	Kind   Kind
	Subset int32 // data subset to serve; < 0 on client→aggregator requests
	// SLO is the request's class (SLOExact…SLOBestEffort, or SLONone:
	// no contract stated); MinAccuracy is the Bounded floor.
	SLO         uint8
	MinAccuracy float64
	// Level is the frontend-selected ladder level (coarse 0 … fine), or
	// NoLevel.
	Level int16
	// Deadline is the absolute request deadline in Unix nanoseconds (0 =
	// none). Every hop computes its remaining budget from it and
	// abandons work once the budget is exhausted.
	Deadline int64
	// Trace is the request's 64-bit trace ID (0 = untraced). The
	// aggregator stamps it onto every sub-request so component servers
	// record server-side spans under the same tree; when it is 0 servers
	// skip span bookkeeping entirely.
	Trace uint64
	// Tenant names the principal the request is billed to ("" = untagged).
	// It rides every hop so per-tenant cost attribution works on the
	// component side too, but it is deliberately NOT part of the
	// canonical cache key: identical queries from different tenants share
	// one cache entry.
	Tenant string
	// FrameLen is receiver-side metadata, not a wire field: the request
	// decoders set it to the decoded frame's total byte length (length prefix
	// included) so servers can attribute inbound wire bytes without
	// re-measuring the frame. Zero on requests built in process.
	FrameLen int

	CF     *CFRequest
	Search *SearchRequest
	Agg    *AggRequest
}

// SubReply is one component server's reply to a sub-operation.
type SubReply struct {
	ID     uint64
	Subset int32
	Status uint8
	Err    string
	Kind   Kind
	// Level is the ladder level actually served (NoLevel when the finest
	// synopsis was used implicitly).
	Level int16
	// SetsProcessed counts Algorithm 1 improvement steps — the accuracy
	// proxy reported back to the aggregator.
	SetsProcessed uint32
	// Spans are the server-side trace spans (queue wait, handler
	// execution) for a traced request, stitched into the aggregator's
	// tree. Empty when the request carried no trace ID.
	Spans []Span
	// FrameLen is receiver-side metadata, not a wire field: DecodeSubReply
	// sets it to the decoded frame's total byte length (length prefix
	// included) so the aggregator can attribute reply wire bytes. Zero on
	// sub-replies built in process.
	FrameLen int

	CF     *CFResult
	Search *SearchResult
	Agg    *AggResult
}

// Reply is the composed whole-service reply an aggregator returns to a
// client: the merged result plus what was actually delivered (effective
// SLO after downgrades, served level, per-subset statuses).
type Reply struct {
	ID          uint64
	Status      uint8
	Err         string
	Kind        Kind
	SLO         uint8
	MinAccuracy float64
	Degraded    bool
	// Cached reports that the reply was served from the front server's
	// accuracy-aware result cache rather than a fresh fan-out; the
	// entry's recorded accuracy cleared this request's floor.
	Cached bool
	Level  int16
	// Trace echoes the request's trace ID (0 = untraced) so clients can
	// correlate the reply with the trace they minted.
	Trace uint64
	// SubStatus holds one Status* byte per subset, in subset order.
	SubStatus []uint8

	CF     *CFResult
	Search *SearchResult
	Agg    *AggResult
}

// Span kinds carried in SubReply.Spans.
const (
	SpanQueue = 0 // time the sub-operation waited in the server queue
	SpanExec  = 1 // time the handler ran
)

// ServerSpans is how many spans a traced sub-reply carries (its queue
// and exec spans), and how many a pooled sub-reply record holds itself.
const ServerSpans = 2

// Span is one server-side trace span: what kind of time it was, when
// it started (server wall clock, Unix nanoseconds) and how long it
// lasted. The aggregator converts Start into its trace's time base.
// Since v6 a span also carries its resource cost, so attribution
// travels inside replies the same way timing does.
type Span struct {
	Kind  uint8
	Start int64
	Dur   int64
	Cost  Cost
}

// Cost is one span's resource account: what serving it actually
// consumed. Zero values mean "nothing measured" — a queue span carries
// only QueueNs, an exec span the other three.
type Cost struct {
	// CPUNs is handler execution time in nanoseconds (the CPU the
	// handler held for the span's duration).
	CPUNs uint64
	// Scanned counts data units touched: fact rows, postings, sample
	// units — the workload's natural scan unit.
	Scanned uint64
	// QueueNs is time spent waiting in a server queue, nanoseconds.
	QueueNs uint64
	// WireBytes is the frame bytes on the wire attributed to the span
	// (the component server reports the request frame it decoded; the
	// aggregator adds reply frames on its side).
	WireBytes uint64
}

// spanWireSize is a Span's encoded size, used for count validation.
const spanWireSize = 1 + 8 + 8 + 4*8

// MaxFrame is the default bound on accepted frame sizes; a corrupt
// length prefix fails fast instead of attempting a huge allocation.
const MaxFrame = 8 << 20

// appenders — little-endian throughout.

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendF64s(b []byte, vs []float64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

func appendI32s(b []byte, vs []int32) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU32(b, uint32(v))
	}
	return b
}

// grow returns dst with room for n more bytes, reallocating at most once
// and to exactly that size: every Append*Frame calls it with the frame's
// FrameSize, so the appenders above never reallocate.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// reader decodes a frame body with sticky bounds-checked errors: a
// truncated or corrupt frame yields an error, never a panic.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or corrupt frame (%s at offset %d of %d)", what, r.off, len(r.b))
	}
}

func (r *reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail(what)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u8(what string) uint8 {
	s := r.take(1, what)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *reader) u16(what string) uint16 {
	s := r.take(2, what)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *reader) u32(what string) uint32 {
	s := r.take(4, what)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *reader) u64(what string) uint64 {
	s := r.take(8, what)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *reader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

// count validates a declared element count against the bytes actually
// remaining (elemSize bytes each), so corrupt counts cannot drive huge
// allocations.
func (r *reader) count(elemSize int, what string) int {
	n := int(r.u32(what))
	if r.err != nil {
		return 0
	}
	if n < 0 || (len(r.b)-r.off)/elemSize < n {
		r.fail(what + " count")
		return 0
	}
	return n
}

func (r *reader) str(what string) string {
	n := r.count(1, what)
	return string(r.take(n, what))
}

func (r *reader) f64s(what string) []float64 {
	n := r.count(8, what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64(what)
	}
	return out
}

// f64Group decodes consecutive float64 arrays — the parallel arrays of
// one CF or aggregation result — into one backing: it validates every
// declared count against the bytes present first, then carves each array
// off back (grown to the arrays' total when it is shorter: a fresh
// allocation for back == nil) with its capacity capped to its length, so
// an append to one never writes into its neighbour. An empty array
// decodes to nil, as f64s does. It returns the backing, for a pooled
// record to keep.
func (r *reader) f64Group(back []float64, what string, dst ...*[]float64) []float64 {
	scan := *r
	total := 0
	for range dst {
		n := scan.count(8, what)
		scan.take(8*n, what)
		total += n
	}
	if scan.err != nil {
		*r = scan
		return back
	}
	if cap(back) < total {
		back = make([]float64, total)
	}
	rest := back[:total]
	for _, d := range dst {
		n := r.count(8, what)
		raw := r.take(8*n, what)
		if n == 0 {
			*d = nil
			continue
		}
		*d, rest = rest[:n:n], rest[n:]
		for i := range *d {
			(*d)[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	return back
}

func (r *reader) i32s(what string) []int32 {
	list, _ := r.i32sInto(nil, what)
	return list
}

// i32sInto decodes an int32 array into back as ratingsInto does ratings.
func (r *reader) i32sInto(back []int32, what string) (list, backing []int32) {
	n := r.count(4, what)
	if r.err != nil || n == 0 {
		return nil, back
	}
	if cap(back) < n {
		back = make([]int32, n)
	}
	list = back[:n:n]
	for i := range list {
		list[i] = int32(r.u32(what))
	}
	return list, back
}

func (r *reader) done(kind string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after %s", len(r.b)-r.off, kind)
	}
	return nil
}

// Encoded sizes of the fixed parts of each frame, length prefix, version
// and frame-kind bytes included; every variable-length field adds its
// 4-byte count plus its elements.
const (
	frameHeaderSize   = 4 + 1 + 1
	requestFixedSize  = frameHeaderSize + 8 + 8 + 1 + 4 + 1 + 8 + 2 + 8 + 8 + 4
	subReplyFixedSize = frameHeaderSize + 8 + 4 + 1 + 4 + 1 + 2 + 4 + 4
	replyFixedSize    = frameHeaderSize + 8 + 1 + 4 + 1 + 1 + 8 + 1 + 1 + 2 + 8 + 4
)

// CheckPayload reports a request that cannot be sent: its kind is
// unknown, or the payload struct of its kind is missing. FrameSize and
// AppendRequestFrame assume a request that passes, so a sender checks
// before it commits the request to a connection.
func (req *Request) CheckPayload() error {
	var has bool
	switch req.Kind {
	case KindCF:
		has = req.CF != nil
	case KindSearch:
		has = req.Search != nil
	case KindAgg:
		has = req.Agg != nil
	default:
		return fmt.Errorf("wire: unknown payload kind %d", req.Kind)
	}
	if !has {
		return fmt.Errorf("wire: %s request without its payload", req.Kind)
	}
	return nil
}

// FrameSize returns the exact number of bytes AppendRequestFrame appends
// for req, length prefix included.
func (req *Request) FrameSize() int {
	n := requestFixedSize + len(req.Tenant)
	switch req.Kind {
	case KindCF:
		n += 4 + 12*len(req.CF.Ratings) + 4 + 4*len(req.CF.Targets)
	case KindSearch:
		n += 4 + len(req.Search.Query) + 4
	case KindAgg:
		n += 1 + 8 + 8
	}
	return n
}

// AppendRequestFrame appends the length-prefixed encoding of req,
// growing dst at most once (to FrameSize).
func AppendRequestFrame(dst []byte, req *Request) []byte {
	dst = grow(dst, req.FrameSize())
	start := len(dst)
	dst = appendU32(dst, 0) // length, patched below
	dst = append(dst, Version, frameRequest)
	dst = appendU64(dst, req.ID)
	dst = appendU64(dst, req.Seq)
	dst = append(dst, byte(req.Kind))
	dst = appendU32(dst, uint32(req.Subset))
	dst = append(dst, req.SLO)
	dst = appendF64(dst, req.MinAccuracy)
	dst = appendU16(dst, uint16(req.Level))
	dst = appendU64(dst, uint64(req.Deadline))
	dst = appendU64(dst, req.Trace)
	dst = appendStr(dst, req.Tenant)
	switch req.Kind {
	case KindCF:
		dst = appendU32(dst, uint32(len(req.CF.Ratings)))
		for _, rt := range req.CF.Ratings {
			dst = appendU32(dst, uint32(rt.Item))
			dst = appendF64(dst, rt.Score)
		}
		dst = appendI32s(dst, req.CF.Targets)
	case KindSearch:
		dst = appendStr(dst, req.Search.Query)
		dst = appendU32(dst, uint32(req.Search.K))
	case KindAgg:
		dst = append(dst, req.Agg.Op)
		dst = appendF64(dst, req.Agg.Lo)
		dst = appendF64(dst, req.Agg.Hi)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// DecodeRequest decodes a request frame body into one heap object, as
// DecodeRequestWith does with no caller record.
func DecodeRequest(body []byte) (*Request, error) {
	req, _, err := DecodeRequestWith[struct{}](body)
	return req, err
}

// inlineStrBytes is how many bytes of a search request's tenant and
// query, together, its decoded object holds (see inlineString).
const inlineStrBytes = 24

// searchRequestPayload is a decoded search request's payload with room
// for its short strings.
type searchRequestPayload struct {
	SearchRequest
	inline [inlineStrBytes]byte
}

// DecodeRequestWith decodes a request frame body into one heap object
// that holds the request, the payload struct of its kind and a zeroed
// record X of the caller's: a front server decodes each request straight
// into the job that serves it. A search request's tenant and query live
// in the same object when together they fit its inlineStrBytes; a longer
// string, a CF or aggregation request's tenant, and the CF slices are the
// only further allocations. Nothing in the result aliases body, and the
// object is never reused: the caller may keep the request indefinitely.
func DecodeRequestWith[X any](body []byte) (*Request, *X, error) {
	r := &reader{b: body}
	var req Request // decoded on the stack, copied into its box once the kind is known
	tenant, err := r.requestHead(&req)
	if err != nil {
		return nil, nil, err
	}
	var (
		x     *X
		out   *Request
		spare []byte // the object's inline string bytes (none but a search request's)
	)
	switch req.Kind {
	case KindCF:
		x, out, req.CF = boxWith[X, Request, CFRequest]()
	case KindSearch:
		var s *searchRequestPayload
		x, out, s = boxWith[X, Request, searchRequestPayload]()
		req.Search, spare = &s.SearchRequest, s.inline[:]
	default: // KindAgg: requestHead refused every other kind
		x, out, req.Agg = boxWith[X, Request, AggRequest]()
	}
	if _, _, err := r.requestPayload(&req, tenant, spare, nil, nil); err != nil {
		return nil, nil, err
	}
	*out = req
	return out, x, nil
}

// requestHead reads a request body's header and fixed fields into req and
// returns its tenant's bytes, still in the body. It refuses an unknown
// payload kind, so the caller can place the payload struct of req.Kind.
func (r *reader) requestHead(req *Request) (tenant []byte, err error) {
	if err := checkHeader(r, frameRequest, "request"); err != nil {
		return nil, err
	}
	req.ID = r.u64("id")
	req.Seq = r.u64("seq")
	req.Kind = Kind(r.u8("kind"))
	req.Subset = int32(r.u32("subset"))
	req.SLO = r.u8("slo")
	req.MinAccuracy = r.f64("minAccuracy")
	req.Level = int16(r.u16("level"))
	req.Deadline = int64(r.u64("deadline"))
	req.Trace = r.u64("trace")
	tenant = r.take(r.count(1, "tenant"), "tenant")
	if req.Kind > KindAgg {
		return nil, fmt.Errorf("wire: unknown payload kind %d", req.Kind)
	}
	return tenant, nil
}

// requestPayload reads the payload of req's kind into the struct req
// already points at and checks that nothing trails it: the one
// field-by-field request parse, behind both request decoders. A CF
// request's ratings and targets are decoded into the backings passed in,
// each replaced by one of exactly its length when it is shorter (nil: a
// fresh allocation), and the backings are returned for a record to keep;
// each list is capped to its length, so an append to it never writes
// into the backing's tail. The tenant, and a search request's query, are
// copied into spare when they fit (inlineString).
func (r *reader) requestPayload(req *Request, tenant, spare []byte, ratings []Rating, targets []int32) ([]Rating, []int32, error) {
	var query []byte // still in the body, as tenant
	switch req.Kind {
	case KindCF:
		req.CF.Ratings, ratings = r.ratingsInto(ratings)
		req.CF.Targets, targets = r.i32sInto(targets, "targets")
	case KindSearch:
		query = r.take(r.count(1, "query"), "query")
		req.Search.K = int32(r.u32("k"))
	case KindAgg:
		req.Agg.Op = r.u8("op")
		req.Agg.Lo = r.f64("lo")
		req.Agg.Hi = r.f64("hi")
	}
	if err := r.done("request"); err != nil {
		return ratings, targets, err
	}
	req.Tenant = inlineString(&spare, tenant)
	if req.Search != nil {
		req.Search.Query = inlineString(&spare, query)
	}
	req.FrameLen = 4 + len(r.b)
	return ratings, targets, nil
}

// ratingsInto decodes a CF request's ratings into back (see
// requestPayload) and returns the list, nil when empty, and the backing.
func (r *reader) ratingsInto(back []Rating) (list, backing []Rating) {
	n := r.count(12, "ratings")
	if r.err != nil || n == 0 {
		return nil, back
	}
	if cap(back) < n {
		back = make([]Rating, n)
	}
	list = back[:n:n]
	for i := range list {
		list[i].Item = int32(r.u32("rating item"))
		list[i].Score = r.f64("rating score")
	}
	return list, back
}

// inlineString copies raw into the front of *spare, advances *spare past
// it and returns the copy as a string; raw longer than what is left of
// *spare spills to an ordinary string of its own. spare must be inline
// bytes of the decoded request's own object, and the string is built
// with unsafe.String over them, which is sound only under the invariant
// both request decoders keep: the bytes are written here, before the
// request is returned, and not again while a string over them can be
// live. A one-shot request (DecodeRequestWith) is never reused, so its
// strings never change, and retaining one retains its object. A
// RequestRecord's strings are valid until the record is released: its
// next decode writes the same bytes (and under the race detector its
// release overwrites them).
func inlineString(spare *[]byte, raw []byte) string {
	n := len(raw)
	if n == 0 {
		return ""
	}
	if n > len(*spare) {
		return string(raw)
	}
	b := (*spare)[:n:n]
	*spare = (*spare)[n:]
	copy(b, raw)
	return unsafe.String(&b[0], n)
}

// FrameSize returns the exact number of bytes AppendSubReplyFrame
// appends for rep, length prefix included.
func (rep *SubReply) FrameSize() int {
	n := subReplyFixedSize + len(rep.Err) + spanWireSize*len(rep.Spans)
	if rep.Status == StatusOK {
		n += resultPayloadSize(rep.Kind, rep.CF, rep.Search, rep.Agg)
	}
	return n
}

// AppendSubReplyFrame appends the length-prefixed encoding of rep,
// growing dst at most once (to FrameSize).
func AppendSubReplyFrame(dst []byte, rep *SubReply) []byte {
	dst = grow(dst, rep.FrameSize())
	start := len(dst)
	dst = appendU32(dst, 0)
	dst = append(dst, Version, frameSubReply)
	dst = appendU64(dst, rep.ID)
	dst = appendU32(dst, uint32(rep.Subset))
	dst = append(dst, rep.Status)
	dst = appendStr(dst, rep.Err)
	dst = append(dst, byte(rep.Kind))
	dst = appendU16(dst, uint16(rep.Level))
	dst = appendU32(dst, rep.SetsProcessed)
	dst = appendU32(dst, uint32(len(rep.Spans)))
	for _, sp := range rep.Spans {
		dst = append(dst, sp.Kind)
		dst = appendU64(dst, uint64(sp.Start))
		dst = appendU64(dst, uint64(sp.Dur))
		dst = appendU64(dst, sp.Cost.CPUNs)
		dst = appendU64(dst, sp.Cost.Scanned)
		dst = appendU64(dst, sp.Cost.QueueNs)
		dst = appendU64(dst, sp.Cost.WireBytes)
	}
	if rep.Status == StatusOK {
		dst = appendResultPayload(dst, rep.Kind, rep.CF, rep.Search, rep.Agg)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// DecodeSubReply decodes a sub-reply frame body into a record from the
// sub-reply pool (see NewSubReply): the record holds the payload struct
// of every kind, a search result's hits inline when they fit
// (SearchPayload), a traced reply's ServerSpans spans, and the float
// backing a CF or aggregation result's arrays are carved from. A warm
// record decodes a frame without allocating; the error string, more
// spans than that, a longer hit list, and arrays longer than the
// record's backing are the further allocations. Nothing in the result
// aliases body. The caller owns the record: it may keep it indefinitely,
// or hand it back with ReleaseSubReply once nothing reads it any more.
func DecodeSubReply(body []byte) (*SubReply, error) {
	rec := subRecords.Get().(*subRecord)
	take(rec)
	rep, err := rec.decode(body)
	if err != nil {
		rec.clear()
		subRecords.Put(rec)
	}
	return rep, err
}

// decode decodes a sub-reply frame body into a cleared record.
func (rec *subRecord) decode(body []byte) (*SubReply, error) {
	r := &reader{b: body}
	if err := checkHeader(r, frameSubReply, "sub-reply"); err != nil {
		return nil, err
	}
	rep := &rec.rep
	rep.ID = r.u64("id")
	rep.Subset = int32(r.u32("subset"))
	rep.Status = r.u8("status")
	rep.Err = r.str("err")
	rep.Kind = Kind(r.u8("kind"))
	rep.Level = int16(r.u16("level"))
	rep.SetsProcessed = r.u32("sets")
	switch n := r.count(spanWireSize, "spans"); {
	case n == 0:
	case n <= ServerSpans:
		rep.Spans = rec.spans[:n:n]
	default:
		rep.Spans = make([]Span, n)
	}
	for i := range rep.Spans {
		sp := &rep.Spans[i]
		sp.Kind = r.u8("span kind")
		sp.Start = int64(r.u64("span start"))
		sp.Dur = int64(r.u64("span dur"))
		sp.Cost.CPUNs = r.u64("span cpu")
		sp.Cost.Scanned = r.u64("span scanned")
		sp.Cost.QueueNs = r.u64("span queue")
		sp.Cost.WireBytes = r.u64("span wire bytes")
	}
	if rep.Status == StatusOK {
		switch rep.Kind {
		case KindCF:
			rep.CF = &rec.cf
			rec.floats = r.cfResult(rec.floats, &rec.cf)
		case KindSearch:
			rep.Search = r.searchResult(&rec.search)
		case KindAgg:
			rep.Agg = &rec.agg
			rec.floats = r.aggResult(rec.floats, &rec.agg)
		default:
			return nil, fmt.Errorf("wire: unknown payload kind %d", rep.Kind)
		}
	}
	if err := r.done("sub-reply"); err != nil {
		return nil, err
	}
	rep.FrameLen = 4 + len(body)
	return rep, nil
}

// FrameSize returns the exact number of bytes AppendReplyFrame appends
// for rep, length prefix included — what a front server charges to the
// request's wire cost before the reply is encoded.
func (rep *Reply) FrameSize() int {
	n := replyFixedSize + len(rep.Err) + len(rep.SubStatus)
	if ReplyCarriesPayload(rep.Status) {
		n += resultPayloadSize(rep.Kind, rep.CF, rep.Search, rep.Agg)
	}
	return n
}

// AppendReplyFrame appends the length-prefixed encoding of the
// composed reply, growing dst at most once (to FrameSize).
func AppendReplyFrame(dst []byte, rep *Reply) []byte {
	dst = grow(dst, rep.FrameSize())
	start := len(dst)
	dst = appendU32(dst, 0)
	dst = append(dst, Version, frameReply)
	dst = appendU64(dst, rep.ID)
	dst = append(dst, rep.Status)
	dst = appendStr(dst, rep.Err)
	dst = append(dst, byte(rep.Kind))
	dst = append(dst, rep.SLO)
	dst = appendF64(dst, rep.MinAccuracy)
	degraded := byte(0)
	if rep.Degraded {
		degraded = 1
	}
	dst = append(dst, degraded)
	cached := byte(0)
	if rep.Cached {
		cached = 1
	}
	dst = append(dst, cached)
	dst = appendU16(dst, uint16(rep.Level))
	dst = appendU64(dst, rep.Trace)
	dst = appendU32(dst, uint32(len(rep.SubStatus)))
	dst = append(dst, rep.SubStatus...)
	if ReplyCarriesPayload(rep.Status) {
		dst = appendResultPayload(dst, rep.Kind, rep.CF, rep.Search, rep.Agg)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// inlineSubStatus is how many per-subset statuses a decoded Reply keeps
// inside its own heap object; a wider fan-out's SubStatus is a slice of
// its own.
const inlineSubStatus = 16

// replyHead is a decoded Reply with room for its SubStatus bytes.
type replyHead struct {
	Reply
	sub [inlineSubStatus]uint8
}

// DecodeReply decodes a composed-reply frame body. The reply, its
// SubStatus bytes (up to inlineSubStatus of them) and the result struct
// of its kind — a search result's hits inline when they fit — are one
// heap object (see Box); the error string and a longer hit list or the
// result's arrays are the only further allocations, and nothing in the
// result aliases body.
func DecodeReply(body []byte) (*Reply, error) {
	r := &reader{b: body}
	if err := checkHeader(r, frameReply, "reply"); err != nil {
		return nil, err
	}
	var rep Reply
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
	sub := r.take(r.count(1, "substatus"), "substatus") // still in body: copied out below
	var out *replyHead
	switch {
	case !ReplyCarriesPayload(rep.Status):
		out = new(replyHead)
	case rep.Kind == KindCF:
		out, rep.CF = Box[replyHead, CFResult]()
		r.cfResult(nil, rep.CF)
	case rep.Kind == KindSearch:
		var p *SearchPayload
		out, p = Box[replyHead, SearchPayload]()
		rep.Search = r.searchResult(p)
	case rep.Kind == KindAgg:
		out, rep.Agg = Box[replyHead, AggResult]()
		r.aggResult(nil, rep.Agg)
	default:
		return nil, fmt.Errorf("wire: unknown payload kind %d", rep.Kind)
	}
	if err := r.done("reply"); err != nil {
		return nil, err
	}
	switch n := len(sub); {
	case n > len(out.sub):
		rep.SubStatus = append([]uint8(nil), sub...)
	case n > 0:
		// Capped, so an append by the owner reallocates instead of running
		// into the rest of the array.
		rep.SubStatus = out.sub[:n:n]
		copy(rep.SubStatus, sub)
	}
	out.Reply = rep
	return &out.Reply, nil
}

func resultPayloadSize(kind Kind, cf *CFResult, search *SearchResult, agg *AggResult) int {
	switch kind {
	case KindCF:
		return 4 + 8*len(cf.Num) + 4 + 8*len(cf.Den)
	case KindSearch:
		return 4 + 12*len(search.Hits)
	case KindAgg:
		return 4*4 + 8*(len(agg.Sum)+len(agg.Cnt)+len(agg.SumVar)+len(agg.CntVar))
	}
	return 0
}

func appendResultPayload(dst []byte, kind Kind, cf *CFResult, search *SearchResult, agg *AggResult) []byte {
	switch kind {
	case KindCF:
		dst = appendF64s(dst, cf.Num)
		dst = appendF64s(dst, cf.Den)
	case KindSearch:
		dst = appendU32(dst, uint32(len(search.Hits)))
		for _, h := range search.Hits {
			dst = appendU32(dst, uint32(h.Doc))
			dst = appendF64(dst, h.Score)
		}
	case KindAgg:
		dst = appendF64s(dst, agg.Sum)
		dst = appendF64s(dst, agg.Cnt)
		dst = appendF64s(dst, agg.SumVar)
		dst = appendF64s(dst, agg.CntVar)
	}
	return dst
}

// Box allocates a record and the payload struct of its kind as one heap
// object and returns pointers to both halves: the decoders' one
// allocation per composed reply. Only the payload of the record's own
// kind is boxed, so a record costs its own bytes plus one payload's, and
// whoever retains the record retains the payload with it (they were
// never separable: the record points at it). P may embed the payload
// struct beside inline storage its slices start in (SearchPayload).
func Box[R, P any]() (*R, *P) {
	_, rec, payload := boxWith[struct{}, R, P]()
	return rec, payload
}

// boxWith is Box with a caller's record X in the same object
// (DecodeRequestWith). X comes first: a zero-size last field would pad
// the object, a zero-size first one costs nothing.
func boxWith[X, R, P any]() (*X, *R, *P) {
	b := new(struct {
		x       X
		rec     R
		payload P
	})
	return &b.x, &b.rec, &b.payload
}

// cfResult and aggResult decode a result's arrays into back (nil: a
// fresh allocation) and return it (f64Group).
func (r *reader) cfResult(back []float64, cf *CFResult) []float64 {
	return r.f64Group(back, "cf partials", &cf.Num, &cf.Den)
}

func (r *reader) aggResult(back []float64, ar *AggResult) []float64 {
	return r.f64Group(back, "agg partials", &ar.Sum, &ar.Cnt, &ar.SumVar, &ar.CntVar)
}

// searchResult decodes a hit list into p — into its inline array, capped
// to the list's length, when it fits there — and returns p's result.
func (r *reader) searchResult(p *SearchPayload) *SearchResult {
	n := r.count(12, "hits")
	if r.err == nil && n > 0 {
		if n <= len(p.inline) {
			p.Hits = p.inline[:n:n]
		} else {
			p.Hits = make([]Hit, n)
		}
		for i := range p.Hits {
			p.Hits[i].Doc = int32(r.u32("hit doc"))
			p.Hits[i].Score = r.f64("hit score")
		}
	}
	return &p.SearchResult
}

func checkHeader(r *reader, wantFrame byte, what string) error {
	v := r.u8("version")
	fk := r.u8("frame kind")
	if r.err != nil {
		return r.err
	}
	if v != Version {
		return &VersionError{Got: v, Want: Version}
	}
	if fk != wantFrame {
		return fmt.Errorf("wire: frame kind %d, want %s (%d)", fk, what, wantFrame)
	}
	return nil
}

// FrameKind peeks at a frame body's kind without decoding it.
func FrameKind(body []byte) (byte, error) {
	if len(body) < 2 {
		return 0, fmt.Errorf("wire: frame too short for header")
	}
	if body[0] != Version {
		return 0, &VersionError{Got: body[0], Want: Version}
	}
	return body[1], nil
}

// ReadFrame reads one length-prefixed frame body from r into buf,
// allocating only when buf cannot hold it: the length prefix is read into
// the head of buf and overwritten by the body, so a caller that passes
// the returned slice back in reads its steady state without allocating.
// The returned body aliases buf (or its replacement) and is valid until
// the next call; the Decode* functions copy everything they keep out of
// it. maxFrame bounds the accepted body size (<= 0 selects MaxFrame); an
// oversized or corrupt length prefix is an error, never an allocation.
// Memory grows with the bytes received, not the bytes claimed: a peer
// that stalls after a header claiming MaxFrame pins frameChunk bytes.
func ReadFrame(r io.Reader, buf []byte, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return buf, err
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if n < 2 || n > maxFrame {
		return buf, fmt.Errorf("wire: frame length %d outside [2, %d]", n, maxFrame)
	}
	// The body arrives in chunks doubling from frameChunk, so the buffer
	// grows with the bytes received, not the bytes claimed; a body up to
	// frameChunk is one read into at most one allocation.
	buf = buf[:0]
	for len(buf) < n {
		next := min(n, max(2*len(buf), frameChunk))
		if cap(buf) < next {
			buf = append(make([]byte, 0, next), buf...)
		}
		if _, err := io.ReadFull(r, buf[len(buf):next]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
		buf = buf[:next]
	}
	return buf, nil
}

// frameChunk is the most ReadFrame allocates ahead of the bytes a body
// has delivered: a stalled body holds frameChunk bytes or twice what it
// delivered, whichever is more.
const frameChunk = 64 << 10
