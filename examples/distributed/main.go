// Distributed: the paper's deployment model on real TCP sockets, in
// one process for convenience — the same pieces deploy as separate
// processes via `attrader -serve component|aggregator`.
//
// Four component servers each hold one fact-table shard of the
// approximate-aggregation workload. An aggregator scatters every
// request over loopback connections and gathers with the same policies
// as the in-process runtime; the accuracy-aware frontend (admission,
// 2-replica least-loaded routing, calibrated degradation) sits in
// front of it, and a front server answers wire-protocol clients with
// composed, bounds-aware replies. Every hop propagates the absolute
// request deadline, so a component abandons work the moment the
// budget is gone.
//
// Run with: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	at "accuracytrader"
	"accuracytrader/internal/stats"
)

const (
	shards  = 4
	rows    = 3000
	keys    = 10
	seed    = 7
	queryLo = 2.0
	queryHi = 50.0
)

func main() {
	// Offline: build each shard's stratified-sample synopsis ladder.
	rng := stats.NewRNG(seed)
	comps := make([]*at.AggComponent, shards)
	for s := range comps {
		tab := at.NewFactTable(keys)
		for i := 0; i < rows; i++ {
			tab.Append(int32(rng.Intn(keys)), rng.LogNormal(1.2, 0.8))
		}
		c, err := at.BuildAggComponent(tab, at.AggConfig{
			Rates: []float64{0.05, 0.15, 0.4}, MinSample: 8, Seed: seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		comps[s] = c
	}

	// Component servers: one loopback listener per shard.
	addrs := make([]string, shards)
	for s := 0; s < shards; s++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		// The modeled scan cost (10µs per row) restores the cluster-scale
		// cost/accuracy trade at laptop data sizes: a full exact scan
		// costs 30ms, the finest synopsis 12ms, so a 30ms budget buys an
		// approximate answer plus partial improvement — not exactness.
		srv := at.NewNetComponentServer(at.NewNetAggBackend(comps, at.NetBackendOptions{
			UnitCost: 10 * time.Microsecond,
		}), at.NetServerOptions{})
		go srv.Serve(l)
		defer srv.Close()
		addrs[s] = l.Addr().String()
	}

	// Aggregator + frontend + front server.
	agr, err := at.NewNetAggregator(addrs, at.NetAggregatorOptions{Deadline: 200 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer agr.Close()
	ctrl, err := at.NewDegradationController(at.DegradationConfig{
		Levels:        3,
		LevelAccuracy: []float64{0.85, 0.93, 0.98},
	})
	if err != nil {
		log.Fatal(err)
	}
	fe, err := at.NewFrontend(agr, at.FrontendOptions{
		Replicas:   2,
		Router:     at.NewLeastLoaded(),
		Admission:  []at.AdmissionPolicy{at.NewMaxInflight(4 * shards)},
		Controller: ctrl,
	})
	if err != nil {
		log.Fatal(err)
	}
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fs, err := at.NewNetFrontServer(agr, fe, at.NetServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	go fs.Serve(fl)
	defer fs.Close()

	// A wire-protocol client asks for SUM(value) GROUP BY key under
	// three different accuracy contracts.
	cl, err := at.DialNetClient(fl.Addr().String(), at.NetClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	for _, tc := range []struct {
		name     string
		slo      uint8
		acc      float64
		deadline time.Duration
	}{
		// Exact pays its guarantee in latency (no service budget); the
		// approximate classes carry a 30ms absolute service deadline
		// that every hop propagates and spends.
		{"Exact", 0, 0, 0},
		{"Bounded{0.90}", 1, 0.90, 30 * time.Millisecond},
		{"BestEffort", 2, 0, 30 * time.Millisecond},
	} {
		req := &at.WireRequest{
			Kind: at.WireKindAgg, SLO: tc.slo, MinAccuracy: tc.acc, Level: -1,
			Agg: &at.WireAggRequest{Op: 0, Lo: queryLo, Hi: queryHi},
		}
		if tc.deadline > 0 {
			req.Deadline = time.Now().Add(tc.deadline).UnixNano()
		}
		// The transport timeout is looser than the service budget: the
		// budget bounds component work, the timeout only the round trip.
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		t0 := time.Now()
		rep, err := cl.Call(ctx, req)
		lat := time.Since(t0)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		res := at.NetAggResultOf(rep.Agg)
		fmt.Printf("%-14s %6.1fms  level %d  subs %v\n",
			tc.name, float64(lat)/float64(time.Millisecond), rep.Level, rep.SubStatus)
		for k := 0; k < 3; k++ {
			fmt.Printf("  key %d: SUM ~= %9.1f +- %.1f\n", k, res.Estimate(at.AggSum, k), res.Bound(at.AggSum, k))
		}
	}
}
