package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	// Every method must be callable on nil.
	tr.SetRequest(1, 0, 0.95, 0)
	tr.SetDecision(VerdictDegraded, 1, 3)
	tr.SetCacheOutcome(CacheMiss)
	tr.Add(SpanAdmission, -1, time.Now(), time.Millisecond, 0)
	tr.AddRemote(SpanServerExec, 2, time.Now().UnixNano(), 1000)
	tr.Finish(time.Millisecond)
	if tr.ID() != 0 {
		t.Fatal("nil trace ID should be 0")
	}
	if !tr.Begin().IsZero() {
		t.Fatal("nil trace Begin should be zero")
	}
}

func TestContextRoundTrip(t *testing.T) {
	rec := NewRecorder(4, 8)
	tr := rec.Start(0, time.Now())
	ctx := context.WithValue(context.Background(), TraceKey{}, tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatal("trace did not round-trip through context")
	}
	if TraceFrom(context.Background()) != nil {
		t.Fatal("bare context should carry no trace")
	}
}

func TestRecorderLifecycle(t *testing.T) {
	rec := NewRecorder(4, 8)
	start := time.Now()
	tr := rec.Start(0, start)
	if tr.ID() == 0 {
		t.Fatal("minted ID is zero")
	}
	tr.SetRequest(2, 1, 0.9, start.Add(50*time.Millisecond).UnixNano())
	tr.SetDecision(VerdictDegraded, 1, 4)
	tr.SetCacheOutcome(CacheMiss)
	tr.Add(SpanAdmission, -1, start, 100*time.Microsecond, VerdictDegraded)
	tr.Add(SpanSubOp, 0, start.Add(time.Millisecond), 5*time.Millisecond, 0)
	tr.AddRemote(SpanServerExec, 0, start.Add(2*time.Millisecond).UnixNano(), int64(3*time.Millisecond))
	tr.Finish(7 * time.Millisecond)

	views := rec.Snapshot(0)
	if len(views) != 1 {
		t.Fatalf("Snapshot = %d traces, want 1", len(views))
	}
	v := views[0]
	if v.ID != tr.ID() || !v.Done || v.DurNs != int64(7*time.Millisecond) {
		t.Fatalf("bad view: %+v", v)
	}
	if v.SLO != 1 || v.Level != 4 || v.Verdict != VerdictDegraded || v.CacheOutcome != CacheMiss {
		t.Fatalf("decision fields lost: %+v", v)
	}
	if len(v.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(v.Spans))
	}
	var remote *Span
	for i := range v.Spans {
		if v.Spans[i].Remote {
			remote = &v.Spans[i]
		}
	}
	if remote == nil || remote.Kind != SpanServerExec {
		t.Fatal("remote span not stitched")
	}
	if remote.Start < time.Millisecond || remote.Start > 3*time.Millisecond {
		t.Fatalf("remote span offset = %v, want ~2ms", remote.Start)
	}
}

func TestRecorderPropagatedID(t *testing.T) {
	rec := NewRecorder(4, 8)
	tr := rec.Start(0xdeadbeef, time.Now())
	if tr.ID() != 0xdeadbeef {
		t.Fatalf("ID = %#x, want 0xdeadbeef", tr.ID())
	}
}

func TestRecorderReusesOldestFinishedSlot(t *testing.T) {
	rec := NewRecorder(2, 4)
	a := rec.Start(1, time.Now())
	aID := a.ID() // the *Trace aliases the ring slot; capture before reuse
	a.Finish(time.Millisecond)
	b := rec.Start(2, time.Now())
	b.Finish(time.Millisecond)
	c := rec.Start(3, time.Now())
	c.Finish(time.Millisecond)
	views := rec.Snapshot(0)
	if len(views) != 2 {
		t.Fatalf("Snapshot = %d, want 2 (ring size)", len(views))
	}
	// Most recent first.
	if views[0].ID != 3 {
		t.Fatalf("first snapshot ID = %#x, want most recent 3", views[0].ID)
	}
	for _, v := range views {
		if v.ID == aID {
			t.Fatal("oldest trace should have been evicted")
		}
	}
}

func TestRecorderOverflowsDetached(t *testing.T) {
	rec := NewRecorder(1, 4)
	a := rec.Start(0, time.Now()) // occupies the only slot, stays in flight
	b := rec.Start(0, time.Now()) // must detach
	if rec.Overflowed() != 1 {
		t.Fatalf("Overflowed = %d, want 1", rec.Overflowed())
	}
	b.Add(SpanMerge, -1, time.Now(), time.Millisecond, 0)
	b.Finish(time.Millisecond)
	if got := len(rec.Snapshot(0)); got != 0 {
		t.Fatalf("detached trace appeared in snapshot (%d views)", got)
	}
	a.Finish(time.Millisecond)
	if got := len(rec.Snapshot(0)); got != 1 {
		t.Fatalf("Snapshot = %d, want 1", got)
	}
}

func TestTraceDropsSpansPastCap(t *testing.T) {
	rec := NewRecorder(1, 2)
	tr := rec.Start(0, time.Now())
	for i := 0; i < 5; i++ {
		tr.Add(SpanSubOp, int32(i), time.Now(), time.Millisecond, 0)
	}
	tr.Finish(time.Millisecond)
	v := rec.Snapshot(1)[0]
	if len(v.Spans) != 2 || v.Dropped != 3 {
		t.Fatalf("spans=%d dropped=%d, want 2/3", len(v.Spans), v.Dropped)
	}
}

// TestRecorderSnapshotRace races span recording and trace turnover
// against /traces-style snapshots; run with -race (ISSUE 6 satellite).
func TestRecorderSnapshotRace(t *testing.T) {
	rec := NewRecorder(8, 16)
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr := rec.Start(0, time.Now())
				for s := 0; s < 4; s++ {
					tr.Add(SpanSubOp, int32(s), time.Now(), time.Microsecond, 0)
				}
				tr.SetDecision(VerdictAdmitted, 2, 1)
				tr.Finish(time.Microsecond)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		for _, v := range rec.Snapshot(4) {
			if !v.Done {
				t.Error("snapshot returned unfinished trace")
			}
		}
	}
	wg.Wait()
	if got := rec.Started(); got != 4*perG {
		t.Fatalf("Started = %d, want %d", got, 4*perG)
	}
}

func TestSpanKindString(t *testing.T) {
	kinds := []SpanKind{SpanAdmission, SpanCache, SpanSubOp, SpanHedge,
		SpanServerQueue, SpanServerExec, SpanMerge, SpanRetry,
		SpanBreakerTrip, SpanKind(99)}
	want := []string{"admission", "cache", "subop", "hedge",
		"srvqueue", "srvexec", "merge", "retry", "brktrip", "unknown"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("SpanKind(%d).String() = %q, want %q", k, k.String(), want[i])
		}
	}
}

// BenchmarkTraceDisabled is the CI-guarded zero-alloc check for the
// tracing-disabled hot path: TraceFrom on an untraced context plus the
// nil-receiver recording calls a request would make.
func BenchmarkTraceDisabled(b *testing.B) {
	ctx := context.Background()
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := TraceFrom(ctx)
		tr.SetDecision(VerdictAdmitted, 0, 1)
		tr.SetCacheOutcome(CacheMiss)
		tr.Add(SpanSubOp, 0, now, time.Millisecond, 0)
		tr.Finish(time.Millisecond)
	}
}

// BenchmarkTraceEnabled measures the full per-request recording cost:
// slot claim, typical span volume, finish.
func BenchmarkTraceEnabled(b *testing.B) {
	rec := NewRecorder(256, 16)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := rec.Start(0, now)
		tr.SetRequest(1, 0, 0.95, 0)
		tr.SetDecision(VerdictAdmitted, 0, 1)
		tr.SetCacheOutcome(CacheMiss)
		tr.Add(SpanAdmission, -1, now, time.Microsecond, 0)
		tr.Add(SpanCache, -1, now, time.Microsecond, 0)
		tr.Add(SpanSubOp, 0, now, time.Millisecond, 0)
		tr.Add(SpanMerge, -1, now, time.Microsecond, 0)
		tr.Finish(time.Millisecond)
	}
}

func TestAnomalyReasonLabels(t *testing.T) {
	if got := AnomalyReason(0).Labels(); got != nil {
		t.Fatalf("clear anomaly labels = %v, want nil", got)
	}
	got := (AnomalyDeadlineMiss | AnomalyFloorViolation).Labels()
	want := []string{"deadline_miss", "floor_violation"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("labels = %v, want %v", got, want)
	}
}

func TestFinishDetectsDeadlineMiss(t *testing.T) {
	rec := NewRecorder(4, 8)
	start := time.Now()
	tr := rec.Start(0, start)
	tr.SetRequest(2, 1, 0.9, start.Add(5*time.Millisecond).UnixNano())
	tr.Finish(20 * time.Millisecond) // overshoots the stamped deadline
	if tr.Anomaly()&AnomalyDeadlineMiss == 0 {
		t.Fatal("deadline overshoot not flagged")
	}
	ex := rec.Exemplars(0)
	if len(ex) != 1 || ex[0].Anomaly&uint8(AnomalyDeadlineMiss) == 0 {
		t.Fatalf("deadline miss not pinned: %+v", ex)
	}
	// An on-time trace stays unflagged and unpinned.
	ok := rec.Start(0, start)
	ok.SetRequest(2, 1, 0.9, start.Add(time.Hour).UnixNano())
	ok.Finish(time.Millisecond)
	if ok.Anomaly() != 0 {
		t.Fatalf("healthy trace anomaly = %b", ok.Anomaly())
	}
	if got := rec.PinnedTotal(); got != 1 {
		t.Fatalf("PinnedTotal = %d, want 1", got)
	}
}

func TestHedgeSpanFlagsAnomaly(t *testing.T) {
	rec := NewRecorder(4, 8)
	tr := rec.Start(0, time.Now())
	tr.Add(SpanHedge, 1, time.Now(), 0, 2)
	tr.Finish(time.Millisecond)
	ex := rec.Exemplars(0)
	if len(ex) != 1 || ex[0].Anomaly&uint8(AnomalyHedge) == 0 {
		t.Fatalf("hedge fire not pinned as anomaly: %+v", ex)
	}
	if ex[0].AnomalyWhy[0] != "hedge" {
		t.Fatalf("anomaly labels = %v", ex[0].AnomalyWhy)
	}
}

// TestExemplarsSurviveRingRotation is the tail-retention contract:
// anomalous traces stay queryable after the ring has recycled their
// slot for healthy traffic.
func TestExemplarsSurviveRingRotation(t *testing.T) {
	rec := NewRecorder(2, 4) // tiny ring: rotates after 2 traces
	bad := rec.Start(0, time.Now())
	bad.MarkAnomaly(AnomalyDegraded)
	bad.Finish(time.Millisecond)
	badID := bad.ID()
	for i := 0; i < 10; i++ {
		tr := rec.Start(0, time.Now())
		tr.Finish(time.Millisecond)
	}
	for _, v := range rec.Snapshot(0) {
		if v.ID == badID {
			t.Fatal("anomalous trace still in the ring; rotation did not happen")
		}
	}
	ex := rec.Exemplars(0)
	if len(ex) != 1 || ex[0].ID != badID {
		t.Fatalf("anomalous trace lost after rotation: %+v", ex)
	}
}

func TestPinAfterTheFact(t *testing.T) {
	rec := NewRecorder(2, 4)
	tr := rec.Start(0, time.Now())
	tr.Finish(time.Millisecond)
	id := tr.ID()
	// Still in the ring: Pin flags it and pins the refreshed view.
	if !rec.Pin(id, AnomalyFloorViolation) {
		t.Fatal("Pin of in-ring trace failed")
	}
	ex := rec.Exemplars(0)
	if len(ex) != 1 || ex[0].Anomaly != uint8(AnomalyFloorViolation) {
		t.Fatalf("in-ring pin wrong: %+v", ex)
	}
	// Rotate it out of the ring, then stack a second reason onto the
	// exemplar-only copy.
	for i := 0; i < 5; i++ {
		rec.Start(0, time.Now()).Finish(time.Millisecond)
	}
	if !rec.Pin(id, AnomalyAuditMismatch) {
		t.Fatal("Pin of exemplar-only trace failed")
	}
	ex = rec.Exemplars(0)
	if len(ex) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(ex))
	}
	wantBits := uint8(AnomalyFloorViolation | AnomalyAuditMismatch)
	if ex[0].Anomaly != wantBits {
		t.Fatalf("anomaly bits = %b, want %b", ex[0].Anomaly, wantBits)
	}
	if len(ex[0].AnomalyWhy) != 2 {
		t.Fatalf("anomaly labels = %v, want both reasons", ex[0].AnomalyWhy)
	}
	// A trace gone from both ring and store cannot be pinned.
	if rec.Pin(0xabcdef, AnomalyDegraded) {
		t.Fatal("Pin of unknown trace reported success")
	}
	if rec.Pin(0, AnomalyDegraded) {
		t.Fatal("Pin of id 0 reported success")
	}
}

func TestExemplarCapacityEvictsOldest(t *testing.T) {
	rec := NewRecorder(8, 4)
	rec.SetExemplarCapacity(3)
	var ids []uint64
	for i := 0; i < 5; i++ {
		tr := rec.Start(0, time.Now())
		tr.MarkAnomaly(AnomalyDegraded)
		tr.Finish(time.Millisecond)
		ids = append(ids, tr.ID())
	}
	ex := rec.Exemplars(0)
	if len(ex) != 3 {
		t.Fatalf("exemplars = %d, want cap 3", len(ex))
	}
	// Most recently pinned first; the two oldest were evicted.
	if ex[0].ID != ids[4] || ex[1].ID != ids[3] || ex[2].ID != ids[2] {
		t.Fatalf("wrong survivors: %v vs ids %v", []uint64{ex[0].ID, ex[1].ID, ex[2].ID}, ids)
	}
	if got := rec.EvictedExemplars(); got != 2 {
		t.Fatalf("EvictedExemplars = %d, want 2", got)
	}
	if got := rec.PinnedTotal(); got != 5 {
		t.Fatalf("PinnedTotal = %d, want 5", got)
	}
	// Re-pinning an already-pinned ID replaces in place, no new slot.
	if !rec.Pin(ids[4], AnomalyHedge) {
		t.Fatal("re-pin failed")
	}
	if got := len(rec.Exemplars(0)); got != 3 {
		t.Fatalf("re-pin grew the store to %d", got)
	}
}

func TestNilRecorderExemplarMethods(t *testing.T) {
	var rec *Recorder
	rec.SetExemplarCapacity(8)
	if rec.Exemplars(0) != nil || rec.Pin(1, AnomalyDegraded) ||
		rec.PinnedTotal() != 0 || rec.EvictedExemplars() != 0 {
		t.Fatal("nil recorder exemplar methods not no-ops")
	}
	var tr *Trace
	tr.MarkAnomaly(AnomalyDegraded)
	if tr.Anomaly() != 0 {
		t.Fatal("nil trace anomaly != 0")
	}
}

// TestNilTraceDoesNotAllocate pins tracing's zero cost when off: an
// untraced context yields a nil trace, and one request's worth of calls
// on it allocates nothing.
func TestNilTraceDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		tr := TraceFrom(ctx)
		tr.SetRequest(1, 1, 0.9, 0)
		tr.SetDecision(VerdictAdmitted, 1, 1)
		tr.Add(SpanSubOp, 0, time.Time{}, 0, 0)
		tr.Finish(0)
	})
	if allocs != 0 {
		t.Fatalf("untraced request allocates %.1f/op, want 0", allocs)
	}
}

// TestHealthyFinishDoesNotAllocate guards the hot path: a healthy
// (non-anomalous) trace must finish without touching the exemplar store
// or allocating a view.
func TestHealthyFinishDoesNotAllocate(t *testing.T) {
	rec := NewRecorder(4, 8)
	start := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		tr := rec.Start(0, start)
		tr.Finish(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("healthy start+finish allocates %.1f/op, want 0", allocs)
	}
	if rec.PinnedTotal() != 0 {
		t.Fatal("healthy traces were pinned")
	}
}

// TestExemplarPinRace races anomalous finishes, after-the-fact pins,
// and exemplar queries; run with -race.
func TestExemplarPinRace(t *testing.T) {
	rec := NewRecorder(8, 4)
	rec.SetExemplarCapacity(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				tr := rec.Start(0, time.Now())
				if i%2 == 0 {
					tr.MarkAnomaly(AnomalyDegraded)
				}
				// Read the ID before Finish, as the front server does:
				// a finished slot may be reclaimed by the next Start.
				id := tr.ID()
				tr.Finish(time.Microsecond)
				rec.Pin(id, AnomalyAuditMismatch)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		rec.Exemplars(8)
		rec.PinnedTotal()
	}
	wg.Wait()
}
