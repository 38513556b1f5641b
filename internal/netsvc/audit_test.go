package netsvc

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// auditStack runs 4 component servers behind an audited front server
// (tracing + SLO tracking + fraction-1 sampling, and cost attribution
// into costs unless it is nil) and returns the client, front server,
// and auditor.
func auditStack(t *testing.T, cfg audit.Config, costs *cost.Table) (*Client, *FrontServer, *audit.Auditor) {
	t.Helper()
	comps := buildAggComps(t, 4)
	if cfg.SampleFraction == 0 {
		cfg.SampleFraction = 1
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Microsecond
	}
	lb := startLoopback(t, LoopbackSpec{
		Components: 4,
		// IMaxFrac caps Algorithm 1 improvement at one ranked set, so a
		// coarse-level answer stays genuinely approximate and the exact
		// replay has real error to measure.
		Handler: every(NewAggBackend(comps, BackendOptions{IMaxFrac: 0.01})),
		Agg:     waitAll,
		Front: &FrontSpec{Server: ServerOptions{Tracer: obs.NewRecorder(64, 16), SLO: obs.NewSLOTracker(obs.SLOBudgets{}),
			Audit: &cfg, Costs: costs}},
	})
	cl, fs, auditor := lb.Client, lb.Front, lb.Front.Auditor()
	return cl, fs, auditor
}

// boundedCoarseReq asks for a Bounded aggregation pinned to the
// coarsest ladder level, so the answer is genuinely approximate and the
// Exact replay has real error to measure.
func boundedCoarseReq(minAcc float64) *wire.Request {
	req := aggReq(agg.Sum, 0, math.Inf(1))
	req.SLO, req.MinAccuracy = wire.SLOBounded, minAcc
	req.Level = 0
	return req
}

// TestAuditEndToEnd drives approximate Bounded answers through the
// wire and asserts the auditor replays them exactly: verdicts land in
// the calibration tables, an unreachable floor is detected as a
// violation, the original trace is pinned, and the SLO tracker records
// the after-the-fact floor violation.
func TestAuditEndToEnd(t *testing.T) {
	cl, fs, auditor := auditStack(t, audit.Config{}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// A floor of 0.9999 is unreachable at the coarsest sampling rate:
	// every audited sample must come back a violation.
	const calls = 5
	for i := 0; i < calls; i++ {
		rep, err := cl.Call(ctx, boundedCoarseReq(0.9999))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != wire.ReplyOK || rep.Cached {
			t.Fatalf("reply: %+v", rep)
		}
	}
	if !auditor.Drain(5 * time.Second) {
		t.Fatalf("auditor never drained: %+v", auditor.Stats())
	}
	st := auditor.Stats()
	if st.Sampled != calls || st.Audited != calls {
		t.Fatalf("stats = %+v, want %d sampled and audited", st, calls)
	}
	if st.Violations != calls {
		t.Fatalf("violations = %d, want %d (floor 0.9999 at the coarsest level)", st.Violations, calls)
	}
	tables := auditor.Tables()
	if len(tables) != 1 {
		t.Fatalf("tables = %+v", tables)
	}
	tab := tables[0]
	if tab.Workload != "agg" || tab.Level != wire.NoLevel || tab.Samples != calls {
		t.Fatalf("table: %+v", tab)
	}
	if tab.MeanRealized <= 0 || tab.MeanRealized >= 0.9999 {
		t.Fatalf("mean realized accuracy = %g, want approximate but below the floor", tab.MeanRealized)
	}

	// The verdicts pin the original traces as floor-violation anomalies.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ex := fs.tracer.Exemplars(0)
		pinned := 0
		for _, v := range ex {
			if v.Anomaly&uint8(obs.AnomalyFloorViolation) != 0 {
				pinned++
			}
		}
		if pinned == calls {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pinned %d floor-violation exemplars, want %d: %+v", pinned, calls, ex)
		}
		time.Sleep(time.Millisecond)
	}
	// And the SLO tracker's after-the-fact dimension counts them without
	// inflating the request totals.
	total, _, floor, _ := fs.slo.Window(wire.SLOBounded, 2)
	if total != calls {
		t.Fatalf("SLO total = %d, want %d (floor violations must not double-count)", total, calls)
	}
	if floor != calls {
		t.Fatalf("SLO floor violations = %d, want %d", floor, calls)
	}
}

// TestAuditSkipsEpochSwappedSamples holds a sample at the gate while
// the data epoch swaps underneath it: the replay must be skipped as
// stale — never audited against newer data — and the accounting must
// still balance.
func TestAuditSkipsEpochSwappedSamples(t *testing.T) {
	var gateOpen atomic.Bool
	cl, fs, auditor := auditStack(t, audit.Config{
		Gate: func() bool { return gateOpen.Load() },
	}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if rep, err := cl.Call(ctx, boundedCoarseReq(0)); err != nil || rep.Status != wire.ReplyOK {
		t.Fatalf("call: %v %+v", err, rep)
	}
	// The sample is queued behind the closed gate. Swap the epoch, then
	// let the worker through.
	fs.NotifyEpochSwap(fs.DataEpoch() + 1)
	gateOpen.Store(true)
	if !auditor.Drain(5 * time.Second) {
		t.Fatalf("drain: %+v", auditor.Stats())
	}
	st := auditor.Stats()
	if st.Audited != 0 || st.SkippedStale != 1 {
		t.Fatalf("stats = %+v, want the sample skipped stale", st)
	}
	if st.Sampled != st.Audited+st.SkippedStale+st.ReplayErrs+st.Dropped {
		t.Fatalf("accounting broken: %+v", st)
	}

	// A request answered entirely after the swap audits normally.
	if rep, err := cl.Call(ctx, boundedCoarseReq(0)); err != nil || rep.Status != wire.ReplyOK {
		t.Fatalf("post-swap call: %v %+v", err, rep)
	}
	if !auditor.Drain(5 * time.Second) {
		t.Fatalf("drain: %+v", auditor.Stats())
	}
	if st := auditor.Stats(); st.Audited != 1 {
		t.Fatalf("post-swap stats = %+v, want 1 audited", st)
	}
}

// TestAuditorEpochSwapRace races live audited traffic against a stream
// of NotifyEpochSwap calls; run with -race. No replay may panic or
// audit across a swap, and the accounting invariant must hold exactly
// once everything settles.
func TestAuditorEpochSwapRace(t *testing.T) {
	cl, fs, auditor := auditStack(t, audit.Config{QueueLen: 512}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	stop := make(chan struct{})
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		epoch := uint64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			fs.NotifyEpochSwap(epoch)
			epoch++
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				rep, err := cl.Call(ctx, boundedCoarseReq(0))
				if err != nil || rep.Status != wire.ReplyOK {
					t.Errorf("call: %v %+v", err, rep)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapDone
	// With the swaps stopped, a few quiet calls are guaranteed to be
	// sampled and audited cleanly.
	for i := 0; i < 5; i++ {
		if rep, err := cl.Call(ctx, boundedCoarseReq(0)); err != nil || rep.Status != wire.ReplyOK {
			t.Fatalf("quiet call: %v %+v", err, rep)
		}
	}
	if !auditor.Drain(10 * time.Second) {
		t.Fatalf("drain: %+v", auditor.Stats())
	}
	auditor.Close()
	st := auditor.Stats()
	if st.Sampled != st.Audited+st.SkippedStale+st.ReplayErrs+st.Dropped {
		t.Fatalf("accounting broken after swap race: %+v", st)
	}
	if st.Audited < 5 {
		t.Fatalf("audited = %d, want at least the 5 quiet samples", st.Audited)
	}
}

// TestAuditorSurvivesShutdown races the auditor's background replays
// against the front server's graceful drain; run with -race. Replays
// in flight during Shutdown must complete or fail cleanly — never
// panic — and closing the auditor afterward balances the books.
func TestAuditorSurvivesShutdown(t *testing.T) {
	cl, fs, auditor := auditStack(t, audit.Config{QueueLen: 512}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for i := 0; i < 20; i++ {
		rep, err := cl.Call(ctx, boundedCoarseReq(0))
		if err != nil || rep.Status != wire.ReplyOK {
			t.Fatalf("call: %v %+v", err, rep)
		}
	}
	// Drain the listener while the auditor is still replaying. The
	// replay path talks to the aggregator directly, not through the
	// listener, so pending audits either finish or error — no panics.
	if !fs.Shutdown(5 * time.Second) {
		t.Fatal("front server drain incomplete")
	}
	if !auditor.Drain(10 * time.Second) {
		t.Fatalf("drain: %+v", auditor.Stats())
	}
	auditor.Close()
	st := auditor.Stats()
	if st.Sampled != 20 {
		t.Fatalf("sampled = %d, want 20", st.Sampled)
	}
	if st.Sampled != st.Audited+st.SkippedStale+st.ReplayErrs+st.Dropped {
		t.Fatalf("accounting broken after shutdown: %+v", st)
	}
	// Submitting after Close stays safe and lands in dropped.
	auditor.Submit(&audit.Sample{TraceID: 1})
	if st := auditor.Stats(); st.Dropped == 0 && st.Sampled != 21 {
		t.Fatalf("post-close submit: %+v", st)
	}
}

// TestDegradedReplyPinnedAndRecorded pins the tail-retention contract
// end to end: a degraded reply (one subset lost under a partial
// fan-out) marks its trace anomalous, the exemplar survives healthy
// churn, and the SLO tracker counts the degraded signal.
func TestDegradedReplyPinnedAndRecorded(t *testing.T) {
	var lose atomic.Bool
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		if req.Subset == 0 && lose.Load() {
			return &wire.SubReply{Status: wire.StatusErr, Err: "injected fault", Level: wire.NoLevel}
		}
		return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
			Agg: &wire.AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0.5}, CntVar: []float64{0}}}
	}
	lb := startLoopback(t, LoopbackSpec{Components: 4, Handler: every(h), Agg: waitAll,
		Front: &FrontSpec{Server: ServerOptions{Tracer: obs.NewRecorder(4, 8), SLO: obs.NewSLOTracker(obs.SLOBudgets{})}}})
	cl, fs := lb.Client, lb.Front
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	call := func(slo uint8) *wire.Reply {
		t.Helper()
		req := aggReq(agg.Sum, 0, math.Inf(1))
		req.SLO = slo
		rep, err := cl.Call(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	lose.Store(true)
	rep := call(wire.SLOBestEffort)
	if rep.Status != wire.ReplyDegraded {
		t.Fatalf("degraded reply: %+v", rep)
	}
	degradedID := rep.Trace
	if degradedID == 0 {
		t.Fatal("degraded reply carries no trace ID")
	}

	// Healthy traffic churns the (tiny) ring past the degraded slot.
	lose.Store(false)
	for i := 0; i < 10; i++ {
		if rep := call(wire.SLOBestEffort); rep.Status != wire.ReplyOK {
			t.Fatalf("healthy reply: %+v", rep)
		}
	}
	ex := fs.tracer.Exemplars(0)
	if len(ex) != 1 || ex[0].ID != degradedID {
		t.Fatalf("degraded exemplar lost: %+v", ex)
	}
	if ex[0].Anomaly&uint8(obs.AnomalyDegraded) == 0 {
		t.Fatalf("exemplar reasons: %+v", ex[0])
	}
	// Healthy traces rotated; none were pinned.
	if got := fs.tracer.PinnedTotal(); got != 1 {
		t.Fatalf("PinnedTotal = %d, want 1", got)
	}
	// The SLO tracker saw 11 BestEffort requests, 1 degraded.
	total, _, _, deg := fs.slo.Window(wire.SLOBestEffort, 2)
	if total != 11 || deg != 1 {
		t.Fatalf("SLO window: total %d degraded %d, want 11/1", total, deg)
	}
}
