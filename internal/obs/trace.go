package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind classifies one recorded stage of a request.
type SpanKind uint8

// The span kinds, in rough pipeline order.
const (
	// SpanAdmission is the frontend's load-observe + admit/degrade/
	// reject decision (Note: a Verdict* value).
	SpanAdmission SpanKind = iota
	// SpanCache is the result-cache interaction (Note: a Cache* value).
	SpanCache
	// SpanSubOp is one sub-operation as the aggregator saw it: dispatch
	// to reply (or failure), per subset. Comp is the subset; Note holds
	// the executing component for routed/hedged placements.
	SpanSubOp
	// SpanHedge marks a hedge fire for a subset (Note: the replica
	// component). Its Start is the fire time; Dur is zero.
	SpanHedge
	// SpanServerQueue is a component server's queue wait, recorded
	// server-side and stitched in over the wire.
	SpanServerQueue
	// SpanServerExec is a component server's handler execution,
	// recorded server-side and stitched in over the wire.
	SpanServerExec
	// SpanMerge is the aggregator-side composition of sub-replies into
	// the whole-service answer.
	SpanMerge
	// SpanRetry marks a sub-operation re-dispatched to another
	// component after a peer-level failure (Note: the new component).
	// Its Start is the retry time; Dur is zero.
	SpanRetry
	// SpanBreakerTrip marks the failure that tripped a peer's circuit
	// breaker open (Note: the tripped component).
	SpanBreakerTrip
)

// String returns the span kind's summary-table label.
func (k SpanKind) String() string {
	switch k {
	case SpanAdmission:
		return "admission"
	case SpanCache:
		return "cache"
	case SpanSubOp:
		return "subop"
	case SpanHedge:
		return "hedge"
	case SpanServerQueue:
		return "srvqueue"
	case SpanServerExec:
		return "srvexec"
	case SpanMerge:
		return "merge"
	case SpanRetry:
		return "retry"
	case SpanBreakerTrip:
		return "brktrip"
	default:
		return "unknown"
	}
}

// Admission verdicts (Trace.Verdict and SpanAdmission notes).
const (
	VerdictAdmitted = 0
	VerdictDegraded = 1
	VerdictRejected = 2
)

// AnomalyReason is a bit set naming why a trace counts as anomalous.
// Anomalous traces are pinned into the recorder's exemplar store at
// Finish (or at Pin, for reasons discovered after the fact, like an
// audit mismatch) so the tail's evidence survives while healthy traces
// rotate through the ring.
type AnomalyReason uint8

// The anomaly reasons.
const (
	// AnomalyDeadlineMiss: the request finished past its stamped
	// absolute deadline (detected by Finish).
	AnomalyDeadlineMiss AnomalyReason = 1 << iota
	// AnomalyDegraded: the reply was served degraded (downgraded class
	// or partial fan-out).
	AnomalyDegraded
	// AnomalyUnavailable: the request's contract could not be met and
	// an unavailable reply was returned.
	AnomalyUnavailable
	// AnomalyHedge: a hedge fired during the fan-out (detected when the
	// hedge span is recorded).
	AnomalyHedge
	// AnomalyFloorViolation: the ground-truth auditor measured realized
	// accuracy below the request's Bounded floor.
	AnomalyFloorViolation
	// AnomalyAuditMismatch: the auditor found the claimed accuracy or
	// claimed error bounds not backed by the exact replay.
	AnomalyAuditMismatch
)

// anomalyNames orders the reason labels by bit position.
var anomalyNames = []string{
	"deadline_miss", "degraded", "unavailable", "hedge",
	"floor_violation", "audit_mismatch",
}

// Labels expands the bit set into its reason labels (nil when clear).
func (a AnomalyReason) Labels() []string {
	if a == 0 {
		return nil
	}
	out := make([]string, 0, 2)
	for i, name := range anomalyNames {
		if a&(1<<uint(i)) != 0 {
			out = append(out, name)
		}
	}
	return out
}

// Cache outcomes (Trace.CacheOutcome and SpanCache notes).
const (
	CacheNone      = 0 // no cache configured / request uncacheable
	CacheHit       = 1
	CacheMiss      = 2 // this request computed (and possibly stored)
	CacheCoalesced = 3 // shared another in-flight request's computation
	CacheRefresh   = 4 // a background refresh-to-exact recomputation
)

// Span is one recorded stage. Start is an offset from the trace's
// start; remote spans are converted from the server's wall clock, so
// cross-machine offsets inherit clock skew (loopback and single-host
// deployments are exact to clock resolution).
type Span struct {
	Kind   SpanKind      `json:"kind"`
	Comp   int32         `json:"comp"` // subset or component; -1 when not applicable
	Remote bool          `json:"remote,omitempty"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Note   int64         `json:"note,omitempty"`
}

// Trace is one request's span tree under construction. A nil *Trace is
// a valid no-op receiver: every method returns immediately, which is
// what keeps the tracing-disabled hot path allocation-free.
type Trace struct {
	mu   sync.Mutex
	rec  *Recorder
	slot int // ring slot, -1 for detached overflow traces
	seq  uint64

	id       uint64
	start    time.Time
	tenant   string
	kind     uint8
	slo      uint8
	minAcc   float64
	level    int16
	verdict  uint8
	cacheOut uint8
	deadline int64 // absolute unix nanos, 0 = none
	dur      time.Duration
	done     bool
	anomaly  AnomalyReason
	dropped  int // spans lost to the per-trace cap
	spans    []Span
}

// TraceView is an immutable snapshot of a finished (or in-flight)
// trace, as served by /traces and consumed by Summarize.
type TraceView struct {
	ID           uint64   `json:"id"`
	Start        int64    `json:"start_unix_ns"`
	DurNs        int64    `json:"dur_ns"`
	Tenant       string   `json:"tenant,omitempty"`
	Kind         uint8    `json:"kind"`
	SLO          uint8    `json:"slo"`
	MinAccuracy  float64  `json:"min_accuracy,omitempty"`
	Level        int16    `json:"level"`
	Verdict      uint8    `json:"verdict"`
	CacheOutcome uint8    `json:"cache_outcome"`
	DeadlineNs   int64    `json:"deadline_unix_ns,omitempty"`
	Done         bool     `json:"done"`
	Anomaly      uint8    `json:"anomaly,omitempty"`
	AnomalyWhy   []string `json:"anomaly_labels,omitempty"`
	Dropped      int      `json:"dropped_spans,omitempty"`
	Spans        []Span   `json:"spans"`
}

// Recorder is a preallocated ring buffer of traces. Start claims a
// slot (overflowing to a detached, unlisted trace when every slot is
// still in flight), Finish completes it, Snapshot copies the most
// recent finished traces. All methods are safe for concurrent use.
type Recorder struct {
	slots    []Trace
	maxSpans int
	nextSlot atomic.Uint64
	nextSeq  atomic.Uint64
	nextID   atomic.Uint64
	started  Counter
	overflow Counter
	ex       exemplarStore
}

// exemplarStore holds pinned copies of anomalous traces, separate from
// the ring so the interesting tail survives while healthy traces
// rotate. Bounded: the oldest pin is evicted once cap entries are held.
type exemplarStore struct {
	mu      sync.Mutex
	cap     int
	seq     uint64
	entries []exemplarEntry
	pinned  Counter
	evicted Counter
}

type exemplarEntry struct {
	seq  uint64
	view TraceView
}

// pin inserts (or, for an already-pinned trace ID, replaces) a view.
func (ex *exemplarStore) pin(v TraceView) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.seq++
	for i := range ex.entries {
		if ex.entries[i].view.ID == v.ID {
			ex.entries[i] = exemplarEntry{ex.seq, v}
			return
		}
	}
	ex.pinned.Inc()
	if len(ex.entries) < ex.cap {
		ex.entries = append(ex.entries, exemplarEntry{ex.seq, v})
		return
	}
	// Evict the oldest pin.
	oldest := 0
	for i := 1; i < len(ex.entries); i++ {
		if ex.entries[i].seq < ex.entries[oldest].seq {
			oldest = i
		}
	}
	ex.entries[oldest] = exemplarEntry{ex.seq, v}
	ex.evicted.Inc()
}

// NewRecorder returns a recorder with n ring slots, each holding up to
// maxSpans spans (excess spans are counted as dropped, never grown:
// span storage is claimed once, up front). n <= 0 selects 256 slots,
// maxSpans <= 0 selects 64 spans.
func NewRecorder(n, maxSpans int) *Recorder {
	if n <= 0 {
		n = 256
	}
	if maxSpans <= 0 {
		maxSpans = 64
	}
	r := &Recorder{slots: make([]Trace, n), maxSpans: maxSpans}
	r.ex.cap = 128
	for i := range r.slots {
		r.slots[i].rec = r
		r.slots[i].slot = i
		r.slots[i].spans = make([]Span, 0, maxSpans)
	}
	return r
}

// Exemplars returns up to n pinned anomalous traces, most recently
// pinned first. n <= 0 returns every pin.
func (r *Recorder) Exemplars(n int) []TraceView {
	if r == nil {
		return nil
	}
	r.ex.mu.Lock()
	all := make([]exemplarEntry, len(r.ex.entries))
	copy(all, r.ex.entries)
	r.ex.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	out := make([]TraceView, len(all))
	for i := range all {
		out[i] = all[i].view
	}
	return out
}

// PinnedTotal returns the number of distinct traces ever pinned as
// anomalous exemplars.
func (r *Recorder) PinnedTotal() int64 {
	if r == nil {
		return 0
	}
	return r.ex.pinned.Value()
}

// Pin marks the trace with the given ID anomalous for reason after the
// fact — the auditor's path, whose verdict lands long after Finish. If
// the trace is still in the ring its flags are updated and the pin
// refreshed; otherwise an already-pinned exemplar is updated in place.
// Returns false when the trace is gone from both.
func (r *Recorder) Pin(id uint64, reason AnomalyReason) bool {
	if r == nil || id == 0 {
		return false
	}
	for i := range r.slots {
		tr := &r.slots[i]
		tr.mu.Lock()
		if tr.seq != 0 && tr.id == id {
			tr.anomaly |= reason
			v := tr.viewLocked()
			tr.mu.Unlock()
			r.ex.pin(v)
			return true
		}
		tr.mu.Unlock()
	}
	r.ex.mu.Lock()
	defer r.ex.mu.Unlock()
	for i := range r.ex.entries {
		if r.ex.entries[i].view.ID == id {
			e := &r.ex.entries[i]
			e.view.Anomaly |= uint8(reason)
			e.view.AnomalyWhy = AnomalyReason(e.view.Anomaly).Labels()
			return true
		}
	}
	return false
}

// Start claims a trace for a request beginning at start. id is the
// propagated trace ID; pass 0 to mint a fresh one.
func (r *Recorder) Start(id uint64, start time.Time) *Trace {
	if r == nil {
		return nil
	}
	if id == 0 {
		id = r.nextID.Add(1)<<16 | uint64(start.UnixNano())&0xffff
	}
	r.started.Inc()
	n := uint64(len(r.slots))
	first := r.nextSlot.Add(1) - 1
	for off := uint64(0); off < n; off++ {
		tr := &r.slots[(first+off)%n]
		tr.mu.Lock()
		if tr.seq != 0 && !tr.done {
			tr.mu.Unlock()
			continue // still being written by an in-flight request
		}
		tr.reset(id, start, r.nextSeq.Add(1))
		tr.mu.Unlock()
		return tr
	}
	// Every slot is in flight: record detached so the caller still gets
	// a valid trace (it just will not be listed).
	r.overflow.Inc()
	tr := &Trace{rec: r, slot: -1, spans: make([]Span, 0, r.maxSpans)}
	tr.reset(id, start, r.nextSeq.Add(1))
	return tr
}

// reset reinitializes a claimed slot. Caller holds tr.mu (or owns the
// detached trace exclusively).
func (tr *Trace) reset(id uint64, start time.Time, seq uint64) {
	tr.id, tr.start, tr.seq = id, start, seq
	tr.tenant = ""
	tr.kind, tr.slo, tr.minAcc, tr.level = 0, 0, 0, -1
	tr.verdict, tr.cacheOut, tr.deadline = VerdictAdmitted, CacheNone, 0
	tr.dur, tr.done, tr.anomaly, tr.dropped = 0, false, 0, 0
	tr.spans = tr.spans[:0]
}

// ID returns the trace's 64-bit identity (0 for a nil trace).
func (tr *Trace) ID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.id
}

// SetRequest stamps the request facts: workload kind, SLO class, its
// Bounded floor, and the absolute deadline (unix nanos, 0 = none).
func (tr *Trace) SetRequest(kind, slo uint8, minAcc float64, deadline int64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.kind, tr.slo, tr.minAcc, tr.deadline = kind, slo, minAcc, deadline
	tr.mu.Unlock()
}

// SetTenant stamps the request's tenant ("" = untagged), so /traces
// can be filtered per tenant.
func (tr *Trace) SetTenant(tenant string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.tenant = tenant
	tr.mu.Unlock()
}

// SetDecision stamps the pipeline's decisions: admission verdict,
// effective SLO class after any downgrade, and the chosen ladder level.
func (tr *Trace) SetDecision(verdict uint8, slo uint8, level int16) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.verdict, tr.slo, tr.level = verdict, slo, level
	tr.mu.Unlock()
}

// SetCacheOutcome stamps the result-cache outcome.
func (tr *Trace) SetCacheOutcome(out uint8) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.cacheOut = out
	tr.mu.Unlock()
}

// Add records one span. start is the span's begin time on this
// process's clock.
func (tr *Trace) Add(kind SpanKind, comp int32, start time.Time, dur time.Duration, note int64) {
	if tr == nil {
		return
	}
	tr.add(Span{Kind: kind, Comp: comp, Start: start.Sub(tr.start), Dur: dur, Note: note})
}

// AddRemote stitches a server-side span into the tree. startUnixNano
// is the server's wall-clock span start.
func (tr *Trace) AddRemote(kind SpanKind, comp int32, startUnixNano, durNano int64) {
	if tr == nil {
		return
	}
	tr.add(Span{
		Kind: kind, Comp: comp, Remote: true,
		Start: time.Duration(startUnixNano - tr.start.UnixNano()),
		Dur:   time.Duration(durNano),
	})
}

func (tr *Trace) add(s Span) {
	tr.mu.Lock()
	if s.Kind == SpanHedge {
		tr.anomaly |= AnomalyHedge
	}
	if len(tr.spans) < cap(tr.spans) {
		tr.spans = append(tr.spans, s)
	} else {
		tr.dropped++
	}
	tr.mu.Unlock()
}

// MarkAnomaly flags the trace with an anomaly reason. Finish pins
// flagged traces into the exemplar store. Safe on a nil trace.
func (tr *Trace) MarkAnomaly(reason AnomalyReason) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.anomaly |= reason
	tr.mu.Unlock()
}

// Anomaly returns the accumulated anomaly bit set (0 for nil).
func (tr *Trace) Anomaly() AnomalyReason {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.anomaly
}

// Finish completes the trace with the request's total duration. A
// finish past the request's stamped deadline marks a deadline miss, and
// any anomalous trace is pinned into the recorder's exemplar store so
// it survives ring rotation. Healthy finishes stay allocation-free.
func (tr *Trace) Finish(dur time.Duration) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.dur = dur
	tr.done = true
	if tr.deadline != 0 && tr.start.UnixNano()+int64(dur) > tr.deadline {
		tr.anomaly |= AnomalyDeadlineMiss
	}
	var pin TraceView
	pinIt := tr.anomaly != 0 && tr.rec != nil
	if pinIt {
		pin = tr.viewLocked()
	}
	tr.mu.Unlock()
	if pinIt {
		tr.rec.ex.pin(pin)
	}
}

// View snapshots the trace. Caller holds tr.mu.
func (tr *Trace) viewLocked() TraceView {
	return TraceView{
		ID:           tr.id,
		Start:        tr.start.UnixNano(),
		DurNs:        int64(tr.dur),
		Tenant:       tr.tenant,
		Kind:         tr.kind,
		SLO:          tr.slo,
		MinAccuracy:  tr.minAcc,
		Level:        tr.level,
		Verdict:      tr.verdict,
		CacheOutcome: tr.cacheOut,
		DeadlineNs:   tr.deadline,
		Done:         tr.done,
		Anomaly:      uint8(tr.anomaly),
		AnomalyWhy:   tr.anomaly.Labels(),
		Dropped:      tr.dropped,
		Spans:        append([]Span(nil), tr.spans...),
	}
}

// Snapshot returns up to n finished traces, most recent first.
// n <= 0 returns every finished trace in the ring.
func (r *Recorder) Snapshot(n int) []TraceView {
	if r == nil {
		return nil
	}
	type seqView struct {
		seq  uint64
		view TraceView
	}
	all := make([]seqView, 0, len(r.slots))
	for i := range r.slots {
		tr := &r.slots[i]
		tr.mu.Lock()
		if tr.seq != 0 && tr.done {
			all = append(all, seqView{tr.seq, tr.viewLocked()})
		}
		tr.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	out := make([]TraceView, len(all))
	for i := range all {
		out[i] = all[i].view
	}
	return out
}

// TraceKey is the context key a request's *Trace is found under. A
// request record that carries its own trace answers it from Value — a
// netsvc server's job does, so the served path adds no context layer —
// and context.WithValue puts one on any other context.
type TraceKey struct{}

// TraceFrom extracts the active trace; nil when the request is not
// traced. The nil result is a valid no-op receiver for every Trace
// method, so call sites need no branches.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(TraceKey{}).(*Trace)
	return tr
}
