package netsvc

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// unitAgg is a component's whole answer in the tests below: one key,
// sum and count 1.
func unitAgg() *wire.SubReply {
	return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
		Agg: &wire.AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0.5}, CntVar: []float64{0}}}
}

// TestNilFrontendFrontServer pins what a front server built without a
// frontend does: it runs one with no controller and no admission policy.
// Subset i is served on component i; an SLONone request is answered at
// its effective class, BestEffort; and the auditor is offered the answer
// at the degrade rule's base accuracy, 1. (Its refusal of a cache is
// TestNewFrontRejectsInvalidPlanes'.)
func TestNilFrontendFrontServer(t *testing.T) {
	const n, calls = 4, 8
	var misplaced, served atomic.Int64
	handler := func(i int) Handler {
		return func(_ context.Context, req *wire.Request) *wire.SubReply {
			if int(req.Subset) != i {
				misplaced.Add(1)
			}
			served.Add(1)
			return unitAgg()
		}
	}
	claims := make(chan float64, 2*calls) // a verdict per call, never blocking the auditor
	lb := startLoopback(t, LoopbackSpec{Components: n, Handler: handler, Agg: waitAll,
		Front: &FrontSpec{Server: ServerOptions{Audit: &audit.Config{SampleFraction: 1, Interval: time.Microsecond,
			OnVerdict: func(smp *audit.Sample, _ audit.Verdict) {
				select {
				case claims <- smp.ClaimedAccuracy:
				default:
				}
			}}}}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < calls; i++ {
		rep, err := lb.Client.Call(ctx, aggReq(agg.Sum, 0, math.Inf(1))) // SLONone
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != wire.ReplyOK || rep.Cached || rep.Level != wire.NoLevel || rep.Agg.Sum[0] != n {
			t.Fatalf("reply %+v", rep)
		}
		if rep.SLO != wire.SLOBestEffort {
			t.Fatalf("reply class %#x, want the effective class BestEffort (%d)", rep.SLO, wire.SLOBestEffort)
		}
	}
	if got := misplaced.Load(); got != 0 || served.Load() < n*calls {
		t.Fatalf("%d of %d sub-operations served off their home component", got, served.Load())
	}
	for i := 0; i < calls; i++ {
		select {
		case c := <-claims:
			if c != 1 {
				t.Fatalf("auditor offered a claim of %v, want 1", c)
			}
		case <-ctx.Done():
			t.Fatalf("%d of %d verdicts: %+v", i, calls, lb.Front.Auditor().Stats())
		}
	}
}

// TestNewFrontRejectsInvalidPlanes: each plane combination NewFront
// cannot serve is refused with a typed error before anything starts —
// a nil server, and the goroutine count back at its baseline, so no
// half-built server is left running. Every audit config registers its
// counters in reg, which stays empty: no refusal started an auditor.
func TestNewFrontRejectsInvalidPlanes(t *testing.T) {
	lb := startLoopback(t, LoopbackSpec{Components: 1, Handler: every(func(context.Context, *wire.Request) *wire.SubReply { return unitAgg() }),
		Agg: waitAll})
	cache, err := rescache.New(rescache.Config{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cache.Close)
	reg := obs.NewRegistry()
	for _, tc := range []struct {
		name string
		opts ServerOptions
		want error
	}{
		{"cache without a controller", ServerOptions{Cache: cache}, ErrCacheNeedsController},
		{"cost without a tracer", ServerOptions{Costs: cost.NewTable(), SLO: obs.NewSLOTracker(obs.SLOBudgets{})}, ErrCostNeedsTracer},
		{"audit fraction above 1", ServerOptions{Audit: &audit.Config{SampleFraction: 1.5, Metrics: reg}}, audit.ErrSampleFraction},
		{"audit fraction below 0", ServerOptions{Audit: &audit.Config{SampleFraction: -0.5, Metrics: reg}}, audit.ErrSampleFraction},
		{"audit beside a refused cache", ServerOptions{Cache: cache, Audit: &audit.Config{Metrics: reg}}, ErrCacheNeedsController},
		{"audit beside a refused cost table", ServerOptions{Costs: cost.NewTable(), Audit: &audit.Config{Metrics: reg}}, ErrCostNeedsTracer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks := leakCheck(t)
			fs, err := NewFront(lb.Agg, nil, tc.opts)
			if fs != nil || !errors.Is(err, tc.want) {
				t.Fatalf("NewFront = %v, %v; want nil, %v", fs, err, tc.want)
			}
			checkLeaks()
		})
	}
	var exposed strings.Builder
	if err := reg.WritePrometheus(&exposed); err != nil || strings.Contains(exposed.String(), "audit_") {
		t.Fatalf("a refused NewFront started an auditor: %v\n%s", err, exposed.String())
	}
}

// TestCallRecordOutlivesStraggler: the frontend's call record is the
// context a fan-out runs under. A PartialGather call returns without its
// straggler; the straggler's peer then fails, and the sub-operation's
// Attempt.Done reads the record (to tell the call's own end from a
// fault) after the reply was written. Under -race this is the record's
// lifetime contract over the network. The straggler saw the request's
// effective class.
func TestCallRecordOutlivesStraggler(t *testing.T) {
	release := make(chan struct{})
	classes := make(chan uint8, 1)
	handler := func(i int) Handler {
		return func(_ context.Context, req *wire.Request) *wire.SubReply {
			if i == 1 {
				classes <- req.SLO
				<-release
			}
			return unitAgg()
		}
	}
	lb := startLoopback(t, LoopbackSpec{Components: 2, Handler: handler,
		Agg: AggregatorOptions{Policy: service.PartialGather, Deadline: time.Second}, Front: &FrontSpec{}})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	req := aggReq(agg.Sum, 0, math.Inf(1)) // SLONone
	// A service budget on the request, so the front job carries a deadline
	// and the gather runs under the record itself; the context only adds
	// transport slack.
	req.Deadline = time.Now().Add(30 * time.Millisecond).UnixNano()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := lb.Client.Call(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != wire.ReplyDegraded || rep.SLO != wire.SLOBestEffort {
		t.Fatalf("partial reply %+v", rep)
	}
	if got := <-classes; got != wire.SLOBestEffort {
		t.Fatalf("straggler saw class %#x, want BestEffort", got)
	}
	closed := make(chan struct{})
	go func() { lb.Servers[1].Close(); close(closed) }() // waits for the released handler
	for deadline := time.Now().Add(5 * time.Second); lb.Agg.QueueDepth(1) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the straggler's sub-operation never failed")
		}
	}
	close(release)
	<-closed
}
