package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/wire"
	"accuracytrader/internal/workload"
)

// The ingestcompare experiment (online-updates extension, not a paper
// figure) validates the live synopsis-update path — append-only delta
// segments over a frozen base, epoch-swapped snapshots, periodic merge
// worker — against the frozen rebuilds the paper's offline pipeline
// produces. Its contracts (EXPERIMENTS.md § ingestcompare): sampling
// honesty under streaming (the merged finest-level answer clears
// min(0.90, the frozen bases' accuracy)); bit-identity of compacted
// epochs with from-scratch rebuilds; cache coherence across swaps (zero
// stale serves); and a v5 append over the wire that becomes visible to
// exact queries. The allocation-free live read path is
// ingest.TestAggSnapshotQueryZeroAlloc's promise.
const (
	// ingestFloor is the Bounded-class accuracy floor probed during
	// streaming, merged across shards the way the service composes
	// answers. The finest ladder level is calibrated so its MEAN
	// accuracy clears 0.90 (see Scale.aggConfig); individual queries
	// scatter around that mean, so each probe's effective floor is
	// min(ingestFloor, frozen-baseline accuracy of the same pinned
	// bases) — live must clear the absolute floor wherever frozen
	// does, and must never be less accurate than frozen anywhere.
	ingestFloor = 0.90
	// ingestBatchRows is the per-shard append batch size of the
	// streaming phase.
	ingestBatchRows = 50
	// ingestIdentityProbes is how many compacted epochs are rebuilt from
	// scratch and compared bit for bit.
	ingestIdentityProbes = 5
	// ingestCacheRounds is the number of swap+lookup rounds of the cache
	// coherence phase; ingestCacheHot the hot-key working set.
	ingestCacheRounds = 6
	ingestCacheHot    = 8
)

// IngestCompare is the full experiment result.
type IngestCompare struct {
	contracts
	Shards       int
	NumKeys      int
	RowsPerShard int // rows streamed into each live shard over phases 1-2
	RowsSeeded   int // rows staged+compacted per shard before the workers started
	FinestLevel  int
	Floor        float64

	// Streaming phase (merge workers running on every shard).
	Batches     int    // per-shard append batches
	FloorChecks int    // merged-answer probes against the floor
	Publishes   uint64 // worker epoch swaps that exposed a new delta (all shards)
	Compactions uint64 // worker base rebuilds (all shards)
	MaxLagMs    float64

	IdentityProbes int // compacted epochs compared with a frozen rebuild
	CacheHits      int // cache-coherence lookups that hit
}

// RunIngestCompare runs the streaming-ingestion validation sweep.
func RunIngestCompare(sc Scale) (*IngestCompare, error) {
	shards := sc.Shards
	if shards < 2 {
		shards = 2
	}
	fcfg := workload.DefaultFactsConfig()
	// Twice the scale's rows per shard, so the seeded half equals the
	// per-shard table size the accuracy ladder is calibrated on — the
	// floor probe then starts from exactly the calibrated setup and the
	// exactly-folded stream can only tighten it.
	fcfg.RowsPerSubset = sc.FactRowsPerSubset * 2
	fcfg.Keys = sc.FactKeys
	fcfg.Seed = sc.Seed
	data := workload.GenerateFacts(fcfg, shards)
	cfg := sc.AggConfig()

	// The row streams: every shard's deterministic fact table, replayed
	// in arrival order. Half seeds each base, three-tenths streams under
	// the workers, shard 0's last fifth feeds the identity probes.
	total := data.Subsets[0].NumRows()
	seeded := total / 2
	streamEnd := seeded + total*3/10
	keysBy := make([][]int32, shards)
	valsBy := make([][]float64, shards)
	for i, tab := range data.Subsets {
		keysBy[i] = make([]int32, tab.NumRows())
		valsBy[i] = make([]float64, tab.NumRows())
		for r := 0; r < tab.NumRows(); r++ {
			keysBy[i][r], valsBy[i][r] = tab.Key(r), tab.Value(r)
		}
	}

	nq := 4
	if sc.AccuracySamples < 12 {
		nq = 3
	}
	queries := data.SampleAggQueries(sc.Seed^0x1e57, nq)

	ic := &IngestCompare{
		Shards:       shards,
		NumKeys:      sc.FactKeys,
		RowsPerShard: total,
		RowsSeeded:   seeded,
		Floor:        ingestFloor,
	}

	lives := make([]*ingest.AggLive, shards)
	for i := 0; i < shards; i++ {
		lives[i] = ingest.NewAggLive(sc.FactKeys, cfg)
		if _, err := lives[i].Append(keysBy[i][:seeded], valsBy[i][:seeded]); err != nil {
			return nil, err
		}
		if _, _, _, err := lives[i].Compact(); err != nil {
			return nil, err
		}
	}
	{
		snap, _ := lives[0].Snapshot()
		ic.FinestLevel = snap.Base().Syn.Levels() - 1
	}

	// Phase 1 — streaming under merge workers: the workers own all
	// publishing; this goroutine appends to every shard and probes the
	// merged service answer over one pinned snapshot per shard, exactly
	// how the aggregator composes — so concurrent swaps cannot skew the
	// comparison and the floor is the service-level Bounded contract.
	workers := make([]*ingest.Worker, shards)
	for i := range lives {
		workers[i] = ingest.NewWorker(lives[i], ingest.WorkerOptions{Interval: time.Millisecond, CompactEvery: 16, Name: "agg"})
	}
	mergedLvl, mergedEx := agg.NewResult(sc.FactKeys), agg.NewResult(sc.FactKeys)
	baseLvl, baseEx := agg.NewResult(sc.FactKeys), agg.NewResult(sc.FactKeys)
	var scratch agg.Result
	var estL, estE, estBL, estBE []float64
	snaps := make([]*ingest.AggSnapshot, shards)
	accSum, baseSum, minAcc, baseMin, floorViol := 0.0, 0.0, 1.0, 1.0, 0
	for at := seeded; at < streamEnd; at += ingestBatchRows {
		hi := at + ingestBatchRows
		if hi > streamEnd {
			hi = streamEnd
		}
		for i := range lives {
			if _, err := lives[i].Append(keysBy[i][at:hi], valsBy[i][at:hi]); err != nil {
				return nil, err
			}
		}
		ic.Batches++
		for i := range lives {
			snaps[i], _ = lives[i].Snapshot()
		}
		for _, q := range queries {
			mergedLvl = mergedLvl.Reset(sc.FactKeys)
			mergedEx = mergedEx.Reset(sc.FactKeys)
			baseLvl = baseLvl.Reset(sc.FactKeys)
			baseEx = baseEx.Reset(sc.FactKeys)
			for _, snap := range snaps {
				scratch = snap.QueryLevel(scratch, q, ic.FinestLevel)
				mergedLvl.Merge(scratch)
				scratch = snap.Exact(scratch, q)
				mergedEx.Merge(scratch)
				// The frozen baseline: the same pinned bases without the
				// delta fold — what an offline rebuild at the last
				// compaction would answer.
				c := snap.Base()
				e := agg.GetEngine(c, q, ic.FinestLevel)
				e.ProcessSynopsis()
				baseLvl.Merge(e.Result())
				e.Release()
				scratch = agg.ExactResultInto(scratch, c, q)
				baseEx.Merge(scratch)
			}
			estL = mergedLvl.EstimatesInto(estL, q.Op)
			estE = mergedEx.EstimatesInto(estE, q.Op)
			estBL = baseLvl.EstimatesInto(estBL, q.Op)
			estBE = baseEx.EstimatesInto(estBE, q.Op)
			acc := agg.Accuracy(estL, estE)
			baseAcc := agg.Accuracy(estBL, estBE)
			ic.FloorChecks++
			accSum += acc
			baseSum += baseAcc
			minAcc, baseMin = min(minAcc, acc), min(baseMin, baseAcc)
			if acc < min(ingestFloor, baseAcc-1e-9) {
				floorViol++
			}
		}
	}
	for i := range workers {
		workers[i].Close()
		ws := workers[i].Stats()
		ic.Publishes += ws.Publishes
		ic.Compactions += ws.Compactions
		ic.MaxLagMs = max(ic.MaxLagMs, ms(ws.MaxLag))
	}
	probes := float64(max(ic.FloorChecks, 1))
	ic.promise("floor", floorViol == 0,
		"%d probed merged answers, live accuracy mean %.3f min %.3f vs frozen baseline mean %.3f min %.3f; effective floor min(%.2f, frozen) -> %d violations",
		ic.FloorChecks, accSum/probes, minAcc, baseSum/probes, baseMin, ic.Floor, floorViol)

	// Phase 2 — bit-identity at compacted epochs: with the workers gone
	// this goroutine is shard 0's single publisher; every probe appends,
	// compacts, then rebuilds a frozen snapshot over the same row prefix
	// from scratch and compares exact plus every ladder level bit for
	// bit.
	l := lives[0]
	probeRows := (total - streamEnd) / ingestIdentityProbes
	at := streamEnd
	reb1, reb2 := agg.NewResult(sc.FactKeys), agg.NewResult(sc.FactKeys)
	identityViol := 0
	var probedEpochs []uint64
	for p := 0; p < ingestIdentityProbes; p++ {
		hi := at + probeRows
		if p == ingestIdentityProbes-1 {
			hi = total
		}
		if _, err := l.Append(keysBy[0][at:hi], valsBy[0][at:hi]); err != nil {
			return nil, err
		}
		at = hi
		if _, _, _, err := l.Compact(); err != nil {
			return nil, err
		}
		snap, epoch := l.Snapshot()
		if snap.DeltaRows() != 0 || snap.Rows() != hi {
			identityViol++
			continue
		}
		rebuilt, err := ingest.BuildAggSnapshot(sc.FactKeys, cfg, keysBy[0][:hi], valsBy[0][:hi])
		if err != nil {
			return nil, err
		}
		ic.IdentityProbes++
		probedEpochs = append(probedEpochs, epoch)
		for _, q := range queries {
			reb1 = snap.Exact(reb1, q)
			reb2 = rebuilt.Exact(reb2, q)
			if !reflect.DeepEqual(reb1, reb2) {
				identityViol++
			}
			for lvl := 0; lvl <= ic.FinestLevel; lvl++ {
				reb1 = snap.QueryLevel(reb1, q, lvl)
				reb2 = rebuilt.QueryLevel(reb2, q, lvl)
				if !reflect.DeepEqual(reb1, reb2) {
					identityViol++
				}
			}
		}
	}

	ic.promise("bit-identity", identityViol == 0 && ic.IdentityProbes == ingestIdentityProbes,
		"%d compacted epochs probed %v, exact + every level vs from-scratch rebuild -> %d mismatches",
		ic.IdentityProbes, probedEpochs, identityViol)

	// Phase 3 — cache coherence across swaps: cached values record the
	// live epoch they were computed at; after each swap bumps the cache
	// epoch and re-warms the hot set, a hit carrying a pre-swap epoch
	// would be a stale serve.
	cache, err := rescache.New(rescache.Config{Capacity: 64, RefreshBelow: 0.01, RefreshInterval: time.Hour})
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	cache.SetRefresh(func(key uint64, payload interface{}) (interface{}, float64, bool) {
		_, ep := l.Snapshot()
		return ep, 1, true
	}, nil)
	{
		_, ep := l.Snapshot()
		for k := uint64(1); k <= ingestCacheHot; k++ {
			cache.Store(k, "live-query", ep, 1)
		}
	}
	lastSwap := l.Epoch()
	cacheAt, misses, stale := 0, 0, 0
	for round := 0; round < ingestCacheRounds; round++ {
		// A small deterministic append, re-using the head of the stream.
		n := 8
		if _, err := l.Append(keysBy[0][cacheAt:cacheAt+n], valsBy[0][cacheAt:cacheAt+n]); err != nil {
			return nil, err
		}
		cacheAt += n
		epoch, moved, _ := l.PublishDelta()
		if moved > 0 {
			lastSwap = epoch
			cache.BumpEpoch()
			cache.RewarmHot(ingestCacheHot)
		}
		for k := uint64(1); k <= ingestCacheHot; k++ {
			v, _, ok := cache.Get(k, 0)
			if !ok {
				misses++
				continue
			}
			ic.CacheHits++
			if ep, _ := v.(uint64); ep < lastSwap {
				stale++
			}
		}
	}
	ic.promise("cache coherence", stale == 0,
		"%d swap rounds, %d hits / %d misses, %d re-warms -> %d stale serves",
		ingestCacheRounds, ic.CacheHits, misses, cache.Stats().Rewarms, stale)

	// Phase 4 — the wire: a v5 append batch through client → front
	// server → component over loopback TCP, visible to exact queries
	// after the next swap.
	if ack, visibleMs, err := runIngestWire(data, cfg); err != nil {
		ic.promise("wire", false, "%v", err)
	} else {
		ic.promise("wire", true, "v5 append acked (accepted %d, staged at epoch %d), visible to exact queries in %.1f ms",
			ack.Accepted, ack.Epoch, visibleMs)
	}
	return ic, nil
}

// runIngestWire drives the loopback-TCP smoke: two live component
// servers with merge workers, an aggregator, an ingest-enabled front
// server, and a client appending one batch then polling exact queries
// until the rows land. It returns the batch's acknowledgement and how
// long the rows took to become visible.
func runIngestWire(data *workload.FactsData, cfg agg.Config) (*wire.IngestReply, float64, error) {
	lives := make([]*ingest.AggLive, 2)
	for i := range lives {
		l, err := StageAggLive(data.Subsets[i], cfg)
		if err != nil {
			return nil, 0, err
		}
		lives[i] = l
		defer ingest.NewWorker(l, ingest.WorkerOptions{Interval: time.Millisecond, CompactEvery: 16}).Close()
	}
	st, err := deployment{
		n: len(lives),
		handler: func(i int) netsvc.Handler {
			return netsvc.NewLiveAggBackend(lives[i:i+1], netsvc.BackendOptions{})
		},
		server: netsvc.ServerOptions{Workers: 2},
		lives:  lives,
		front:  &netsvc.ServerOptions{Workers: 8},
	}.start()
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()

	// Expected composed exact answer after the append: the two shards'
	// pinned snapshots plus the batch.
	q := agg.Query{Op: agg.Sum, Lo: 0, Hi: math.Inf(1)}
	want := agg.NewResult(data.Subsets[0].NumKeys())
	var scratch agg.Result
	for _, l := range lives {
		snap, _ := l.Snapshot()
		scratch = snap.Exact(scratch, q)
		want.Merge(scratch)
	}
	batch := &wire.AggIngest{Keys: []int32{0, 1, 0}, Vals: []float64{10, 20, 30}}
	for i, k := range batch.Keys {
		want.Sum[k] += batch.Vals[i]
		want.Cnt[k]++
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t0 := time.Now()
	ack, err := st.Client.Ingest(ctx, &wire.IngestRequest{Kind: wire.KindAgg, Subset: 0, Agg: batch})
	if err != nil {
		return nil, 0, err
	}
	if ack.Status != wire.IngestOK || ack.Accepted != uint32(len(batch.Keys)) {
		return nil, 0, fmt.Errorf("ingest ack status %d accepted %d (err %q)", ack.Status, ack.Accepted, ack.Err)
	}
	visible := waitFor(func() bool {
		o := st.issue(ctx, AggRequest(q), stamp{slo: frontend.ExactSLO()}, nil)
		if err = o.failed(); err != nil {
			return true
		}
		got := netsvc.AggResultOf(o.rep.Agg)
		for k := range want.Sum {
			if got.Sum[k] != want.Sum[k] || got.Cnt[k] != want.Cnt[k] {
				return false
			}
		}
		return true
	}, 5*time.Second)
	switch {
	case err != nil:
		return nil, 0, fmt.Errorf("exact query: %w", err)
	case !visible:
		return nil, 0, fmt.Errorf("appended batch never became visible to exact queries")
	}
	return ack, ms(time.Since(t0)), nil
}

// Render formats the sweep as a text report.
func (ic *IngestCompare) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INGESTCOMPARE: live synopsis updates vs frozen rebuilds (epoch-swapped streaming ingestion)\n")
	fmt.Fprintf(&b, "(%d live shards, %d-key domain, %d rows/shard: %d seeded+compacted, then streamed in %d-row\n",
		ic.Shards, ic.NumKeys, ic.RowsPerShard, ic.RowsSeeded, ingestBatchRows)
	fmt.Fprintf(&b, " batches under 1 ms merge workers; finest ladder level %d; Bounded floor %.2f on the merged answer)\n\n",
		ic.FinestLevel, ic.Floor)

	fmt.Fprintf(&b, "streaming: %d batches/shard, %d worker publishes + %d compactions, worst freshness lag %.1f ms\n\n",
		ic.Batches, ic.Publishes, ic.Compactions, ic.MaxLagMs)
	ic.renderContracts(&b)

	b.WriteString("\nReading: the delta segment is scanned exactly, so between compactions a live answer is the frozen\n")
	b.WriteString("base's stratified estimate plus a zero-variance fold of the new rows — accuracy can only tighten,\n")
	b.WriteString("which is why the Bounded floor holds at every probe while rows stream in. Compaction re-ranks each\n")
	b.WriteString("stratum by the deterministic per-row sampling priority, so a compacted live store is bit-identical\n")
	b.WriteString("to a frozen rebuild over the same rows: the online path changes freshness, never the statistics.\n")
	return b.String()
}
