package netsvc

import (
	"context"
	"errors"
	"testing"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// TestLoopbackCloseLeavesNoGoroutines is the rig's teardown contract:
// Close after a full start (front server, auditor and client included),
// after an aggregator-only start, and the unwinding of a start whose
// front server's planes are refused all return the goroutine count to
// its pre-start value.
func TestLoopbackCloseLeavesNoGoroutines(t *testing.T) {
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
			Agg: &wire.AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0}, CntVar: []float64{0}}}
	}
	for _, tc := range []struct {
		name  string
		front *FrontSpec
		want  error
	}{
		{"full start", &FrontSpec{Server: ServerOptions{Tracer: obs.NewRecorder(8, 8), Audit: &audit.Config{SampleFraction: 1}}}, nil},
		{"aggregator only", nil, nil},
		{"invalid planes", &FrontSpec{Server: ServerOptions{Costs: cost.NewTable(), Audit: &audit.Config{SampleFraction: 1}}}, ErrCostNeedsTracer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks := leakCheck(t)
			lb, err := StartLoopback(LoopbackSpec{Components: 3, Handler: every(h), Agg: waitAll, Front: tc.front})
			if !errors.Is(err, tc.want) {
				t.Fatalf("StartLoopback error = %v, want %v", err, tc.want)
			}
			if err == nil {
				if len(lb.Servers) != 3 || len(lb.Addrs) != 3 || (lb.Client != nil) != (tc.front != nil) {
					t.Fatalf("deployment shape: %d servers, %d addrs, client %v", len(lb.Servers), len(lb.Addrs), lb.Client != nil)
				}
				if subs, err := lb.Agg.Call(context.Background(), aggReq(agg.Sum, 0, 1)); err != nil || len(subs) != 3 {
					t.Fatalf("call through the rig: %d subs, err %v", len(subs), err)
				}
				lb.Close()
				lb.Close() // idempotent
			}
			checkLeaks()
		})
	}
}
