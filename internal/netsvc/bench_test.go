package netsvc

import (
	"context"
	"math"
	"net"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// benchServe measures one whole-service round trip over loopback —
// client → front server → component fan-out → composed reply — with an
// optional trace recorder on the front server. The traced/untraced
// pair bounds the end-to-end tracing overhead; CI feeds both through
// `benchjson -assert-max-regress`.
func benchServe(b *testing.B, rec *obs.Recorder, costs *cost.Table) {
	comps := buildAggComps(b, 1)
	_, addr := startServer(b, NewAggBackend(comps, BackendOptions{}), ServerOptions{})
	a, err := NewAggregator([]string{addr}, AggregatorOptions{Policy: service.WaitAll, Deadline: 2 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(a.Close)
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	fs := NewFrontServer(a, nil, ServerOptions{Tracer: rec})
	if costs != nil {
		if err := fs.EnableCost(costs); err != nil {
			b.Fatal(err)
		}
	}
	go fs.Serve(fl)
	b.Cleanup(fs.Close)
	cl, err := DialClient(fl.Addr().String(), ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })

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
// cost rides traced spans). CI compares the pair with `benchjson
// -assert-max-regress`.
func BenchmarkServeCosted(b *testing.B) {
	benchServe(b, obs.NewRecorder(256, 64), cost.NewTable())
}
