package netsvc

import (
	"context"
	"math"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// startLiveStack runs n component servers over live (epoch-swapped)
// aggregation shards with merge workers, an aggregator, and an
// ingest-enabled front server, and returns a client plus the shards.
func startLiveStack(t *testing.T, n, numKeys int) (*Client, *FrontServer, []*ingest.AggLive) {
	t.Helper()
	cfg := agg.Config{Rates: []float64{0.1, 0.4}, MinSample: 4, Seed: 3}
	lives := make([]*ingest.AggLive, n)
	for i := range lives {
		lives[i] = ingest.NewAggLive(numKeys, cfg)
		w := ingest.NewWorker(lives[i], ingest.WorkerOptions{Interval: 2 * time.Millisecond, CompactEvery: 8})
		t.Cleanup(w.Close)
	}
	lb := startLoopback(t, LoopbackSpec{
		Components: n,
		Handler:    func(i int) Handler { return NewLiveAggBackend(lives[i:i+1], BackendOptions{}) },
		Ingest:     func(i int) IngestHandler { return NewLiveIngestHandler(LiveStores{Agg: lives[i : i+1]}) },
		Agg:        waitAll,
		Front:      &FrontSpec{},
	})
	cl, fs := lb.Client, lb.Front
	return cl, fs, lives
}

// TestIngestEndToEnd drives an append batch through client → front
// server → aggregator → component and asserts the acknowledged rows
// become visible to exact queries after the next epoch swap, that the
// front server observes the advancing data epoch, and that an
// out-of-domain batch is rejected whole.
func TestIngestEndToEnd(t *testing.T) {
	const numKeys = 8
	cl, fs, _ := startLiveStack(t, 2, numKeys)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	rep, err := cl.Ingest(ctx, &wire.IngestRequest{
		Kind: wire.KindAgg, Subset: 0,
		Agg: &wire.AggIngest{Keys: []int32{1, 2, 1}, Vals: []float64{2, 3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != wire.IngestOK || rep.Accepted != 3 {
		t.Fatalf("ingest ack = %+v", rep)
	}
	if rep.Subset != 0 {
		t.Fatalf("ack subset = %d, want 0", rep.Subset)
	}
	if fs.DataEpoch() == 0 {
		t.Fatal("front server did not observe the data epoch")
	}

	// The ack's epoch is where the batch was staged; it becomes
	// queryable at any strictly greater epoch, i.e. after the merge
	// worker's next swap. Poll the composed exact answer until then.
	req := aggReq(agg.Sum, 0, math.Inf(1))
	req.SLO = wire.SLOExact
	deadline := time.Now().Add(4 * time.Second)
	for {
		qrep, err := cl.Call(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if qrep.Status != wire.ReplyOK {
			t.Fatalf("query status %d err %q", qrep.Status, qrep.Err)
		}
		got := AggResultOf(qrep.Agg)
		if got.Sum[1] == 6 && got.Sum[2] == 3 && got.Cnt[1] == 2 && got.Cnt[2] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("appended rows never became visible: sum=%v cnt=%v", got.Sum, got.Cnt)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Batch atomicity: one out-of-domain key rejects the whole batch.
	bad, err := cl.Ingest(ctx, &wire.IngestRequest{
		Kind: wire.KindAgg, Subset: 0,
		Agg: &wire.AggIngest{Keys: []int32{0, numKeys}, Vals: []float64{1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Status != wire.IngestErr || bad.Accepted != 0 {
		t.Fatalf("out-of-domain batch ack = %+v", bad)
	}

	// An unrouted batch (Subset -1) is assigned a shard round-robin and
	// the ack reports where it landed.
	rr, err := cl.Ingest(ctx, &wire.IngestRequest{
		Kind: wire.KindAgg, Subset: -1,
		Agg: &wire.AggIngest{Keys: []int32{0}, Vals: []float64{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Status != wire.IngestOK || rr.Subset < 0 || rr.Subset > 1 {
		t.Fatalf("round-robin ack = %+v", rr)
	}
}

// TestIngestNotEnabled pins the degradation contract: a component
// without an ingest handler answers IngestRejected instead of killing
// the connection, and the rejection travels back through the front
// server to the client.
func TestIngestNotEnabled(t *testing.T) {
	comps := buildAggComps(t, 1)
	cl := startLoopback(t, LoopbackSpec{Components: 1, Handler: every(NewAggBackend(comps, BackendOptions{})),
		Agg: waitAll, Front: &FrontSpec{}}).Client

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rep, err := cl.Ingest(ctx, &wire.IngestRequest{
		Kind: wire.KindAgg, Subset: 0,
		Agg: &wire.AggIngest{Keys: []int32{0}, Vals: []float64{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != wire.IngestRejected {
		t.Fatalf("ack = %+v, want IngestRejected", rep)
	}
	// The same connection still serves queries after the rejection.
	q := aggReq(agg.Sum, 0, math.Inf(1))
	q.SLO = wire.SLOExact
	if qrep, err := cl.Call(ctx, q); err != nil || qrep.Status != wire.ReplyOK {
		t.Fatalf("query after rejected ingest: %v %+v", err, qrep)
	}
}

// TestLiveBackendCreditsScannedUnits is the regression test for the live
// backend's scan accounting: a traced, costed deployment over live
// shards must meter the rows its answers scanned — an Exact full scan
// and a ladder-level read alike — or the cost frontier of the one
// workload that ingests has no cost axis.
func TestLiveBackendCreditsScannedUnits(t *testing.T) {
	const n, numKeys, rowsPerShard = 2, 8, 400
	lives := make([]*ingest.AggLive, n)
	for i := range lives {
		lives[i] = ingest.NewAggLive(numKeys, agg.Config{Rates: []float64{0.1, 0.4}, MinSample: 4, Seed: 3})
		keys, vals := make([]int32, rowsPerShard), make([]float64, rowsPerShard)
		for r := range keys {
			keys[r], vals[r] = int32(r%numKeys), float64(r)
		}
		if _, err := lives[i].Append(keys, vals); err != nil {
			t.Fatal(err)
		}
		// Compacting gives the shard a base synopsis, so a levelled
		// request takes the ladder read and not the exact fallback.
		if _, _, _, err := lives[i].Compact(); err != nil {
			t.Fatal(err)
		}
	}
	table := cost.NewTable()
	lb := startLoopback(t, LoopbackSpec{
		Components: n,
		Handler:    func(i int) Handler { return NewLiveAggBackend(lives[i:i+1], BackendOptions{}) },
		Agg:        waitAll,
		Front:      &FrontSpec{Server: ServerOptions{Tracer: obs.NewRecorder(16, 16), Costs: table}},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	call := func(slo uint8, level int16) {
		t.Helper()
		req := aggReq(agg.Sum, 0, math.Inf(1))
		req.SLO, req.Level = slo, level
		rep, err := lb.Client.Call(ctx, req)
		if err != nil || rep.Status != wire.ReplyOK {
			t.Fatalf("call(slo %d, level %d) = %+v, %v", slo, level, rep, err)
		}
	}

	call(wire.SLOExact, wire.NoLevel)
	exact := table.Snapshot().Global.Scanned
	if exact != n*rowsPerShard {
		t.Fatalf("Exact request metered %d scanned units, want every row (%d)", exact, n*rowsPerShard)
	}
	call(wire.SLOBestEffort, 0)
	var sample uint64
	for _, l := range lives {
		snap, _ := l.Snapshot()
		sample += uint64(snap.Base().Syn.SampleUnits(0) + snap.DeltaRows())
	}
	if levelled := table.Snapshot().Global.Scanned - exact; sample == 0 || levelled != sample {
		t.Fatalf("level-0 request metered %d scanned units, want the level's sample units (%d)", levelled, sample)
	}
}
