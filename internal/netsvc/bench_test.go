package netsvc

import (
	"context"
	"math"
	"testing"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// benchServe measures one whole-service round trip over loopback —
// client → front server → component fan-out → composed reply — with an
// optional trace recorder on the front server. The traced/untraced
// pair gives a quick local read of the end-to-end tracing overhead;
// the benchmark's instrument for it is trace.overhead_frac in `bash
// bench/run.sh --trace 1`.
func benchServe(b *testing.B, rec *obs.Recorder, costs *cost.Table) {
	comps := buildAggComps(b, 1)
	cl := startLoopback(b, LoopbackSpec{Components: 1, Handler: every(NewAggBackend(comps, BackendOptions{})), Agg: waitAll,
		Front: func(a *Aggregator) (*FrontServer, error) {
			fs := NewFrontServer(a, nil, ServerOptions{Tracer: rec})
			if costs == nil {
				return fs, nil
			}
			return fs, fs.EnableCost(costs)
		}}).Client

	req := aggReq(agg.Sum, 0, math.Inf(1))
	req.SLO = wire.SLOBestEffort
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := cl.Call(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Status != wire.ReplyOK {
			b.Fatalf("reply status %d err %q", rep.Status, rep.Err)
		}
	}
}

func BenchmarkServeUntraced(b *testing.B) { benchServe(b, nil, nil) }

func BenchmarkServeTraced(b *testing.B) { benchServe(b, obs.NewRecorder(256, 64), nil) }

// BenchmarkServeTraced/Costed bound the end-to-end overhead of cost
// attribution (account on the context, span-cost folds over the
// gathered winners, table record per request — tracing included, since
// cost rides traced spans). The benchmark's instrument for it is
// planes.overhead_us in `bash bench/run.sh --trace 1`.
func BenchmarkServeCosted(b *testing.B) {
	benchServe(b, obs.NewRecorder(256, 64), cost.NewTable())
}
