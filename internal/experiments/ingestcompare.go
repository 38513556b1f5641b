package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing" // AllocsPerRun: the live-snapshot read-path zero-allocation guard
	"time"

	"accuracytrader/internal/agg"
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
// produces, and pins the contracts that make streaming ingestion safe
// to serve from:
//
//  1. sampling honesty: while rows stream into every shard under
//     running merge workers, the merged service answer at the finest
//     ladder level clears the Bounded accuracy floor — self-calibrated
//     per probe as min(0.90, accuracy of the same pinned frozen bases)
//     since per-query frozen accuracy varies around the calibrated
//     mean — so streaming never costs accuracy the frozen system had:
//     the exactly-scanned delta can only tighten estimates, never
//     loosen them;
//  2. bit-identity: at every probed compacted epoch, the live store's
//     answers (exact and at every ladder level) are bit-identical to a
//     from-scratch frozen build over the same row prefix — reservoir
//     maintenance loses nothing an offline rebuild would keep;
//  3. cache coherence: epoch swaps bump the result-cache epoch and
//     re-warm hot entries; no lookup ever serves an answer computed
//     from pre-swap data as current (zero stale serves);
//  4. zero read-path cost: Snapshot + QueryLevel on a live store
//     allocates nothing once pools are warm;
//  5. wire: a v5 append batch travels client → front server →
//     component, is acknowledged with its staging epoch, and becomes
//     visible to exact queries after the next swap.
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
	Batches      int // per-shard append batches
	FloorChecks  int // merged-answer probes against the floor
	FloorViol    int
	MeanAcc      float64
	MinAcc       float64
	BaselineMean float64 // frozen-base accuracy over the same pinned snapshots
	BaselineMin  float64
	Publishes    uint64 // worker epoch swaps that exposed a new delta (all shards)
	Compactions  uint64 // worker base rebuilds (all shards)
	MaxLagMs     float64

	// Bit-identity phase (manual compactions, frozen rebuild per probe).
	IdentityProbes int
	IdentityViol   int
	ProbedEpochs   []uint64

	// Cache-coherence phase.
	CacheRounds int
	CacheHits   int
	CacheMisses int
	StaleServes int
	Rewarms     int64

	// Read-path allocation phase.
	ReadAllocs float64

	// Wire phase (loopback TCP).
	WireAccepted  uint32
	WireEpoch     uint64
	WireVisibleMs float64
}

// ingestIdentical reports whether two results are bit-identical across
// every accumulator column.
func ingestIdentical(a, b agg.Result) bool {
	for k := range a.Sum {
		if a.Sum[k] != b.Sum[k] || a.Cnt[k] != b.Cnt[k] ||
			a.SumVar[k] != b.SumVar[k] || a.CntVar[k] != b.CntVar[k] {
			return false
		}
	}
	return true
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
		MinAcc:       1,
		CacheRounds:  ingestCacheRounds,
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
	accSum, baseSum, accCnt := 0.0, 0.0, 0
	ic.BaselineMin = 1
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
			accCnt++
			if acc < ic.MinAcc {
				ic.MinAcc = acc
			}
			if baseAcc < ic.BaselineMin {
				ic.BaselineMin = baseAcc
			}
			floor := ingestFloor
			if f := baseAcc - 1e-9; f < floor {
				floor = f
			}
			if acc < floor {
				ic.FloorViol++
			}
		}
	}
	for i := range workers {
		workers[i].Close()
		ws := workers[i].Stats()
		ic.Publishes += ws.Publishes
		ic.Compactions += ws.Compactions
		if lag := float64(ws.MaxLag) / float64(time.Millisecond); lag > ic.MaxLagMs {
			ic.MaxLagMs = lag
		}
	}
	if accCnt > 0 {
		ic.MeanAcc = accSum / float64(accCnt)
		ic.BaselineMean = baseSum / float64(accCnt)
	}
	ic.promise("floor", ic.FloorViol == 0,
		"%d probed merged answers, live accuracy mean %.3f min %.3f vs frozen baseline mean %.3f min %.3f; effective floor min(%.2f, frozen) -> %d violations",
		ic.FloorChecks, ic.MeanAcc, ic.MinAcc, ic.BaselineMean, ic.BaselineMin, ic.Floor, ic.FloorViol)

	// Phase 2 — bit-identity at compacted epochs: with the workers gone
	// this goroutine is shard 0's single publisher; every probe appends,
	// compacts, then rebuilds a frozen snapshot over the same row prefix
	// from scratch and compares exact plus every ladder level bit for
	// bit.
	l := lives[0]
	probeRows := (total - streamEnd) / ingestIdentityProbes
	at := streamEnd
	reb1, reb2 := agg.NewResult(sc.FactKeys), agg.NewResult(sc.FactKeys)
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
			ic.IdentityViol++
			continue
		}
		rebuilt, err := ingest.BuildAggSnapshot(sc.FactKeys, cfg, keysBy[0][:hi], valsBy[0][:hi])
		if err != nil {
			return nil, err
		}
		ic.IdentityProbes++
		ic.ProbedEpochs = append(ic.ProbedEpochs, epoch)
		for _, q := range queries {
			reb1 = snap.Exact(reb1, q)
			reb2 = rebuilt.Exact(reb2, q)
			if !ingestIdentical(reb1, reb2) {
				ic.IdentityViol++
			}
			for lvl := 0; lvl <= ic.FinestLevel; lvl++ {
				reb1 = snap.QueryLevel(reb1, q, lvl)
				reb2 = rebuilt.QueryLevel(reb2, q, lvl)
				if !ingestIdentical(reb1, reb2) {
					ic.IdentityViol++
				}
			}
		}
	}

	ic.promise("bit-identity", ic.IdentityViol == 0 && ic.IdentityProbes == ingestIdentityProbes,
		"%d compacted epochs probed %v, exact + every level vs from-scratch rebuild -> %d mismatches",
		ic.IdentityProbes, ic.ProbedEpochs, ic.IdentityViol)

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
	cacheAt := 0
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
				ic.CacheMisses++
				continue
			}
			ic.CacheHits++
			if ep, _ := v.(uint64); ep < lastSwap {
				ic.StaleServes++
			}
		}
	}
	ic.Rewarms = cache.Stats().Rewarms
	ic.promise("cache coherence", ic.StaleServes == 0,
		"%d swap rounds, %d hits / %d misses, %d re-warms -> %d stale serves",
		ic.CacheRounds, ic.CacheHits, ic.CacheMisses, ic.Rewarms, ic.StaleServes)

	// Phase 4 — the live read path must be allocation-free once warm:
	// one atomic snapshot load, one pooled engine over the base, one
	// linear delta fold into reused buffers. The race detector
	// randomizes sync.Pool reuse, so the assertion is waived (but still
	// measured) under -race.
	res := agg.NewResult(sc.FactKeys)
	q0 := queries[0]
	for i := 0; i < 8; i++ {
		snap, _ := l.Snapshot()
		res = snap.QueryLevel(res, q0, ic.FinestLevel)
	}
	ic.ReadAllocs = testing.AllocsPerRun(200, func() {
		snap, _ := l.Snapshot()
		res = snap.QueryLevel(res, q0, ic.FinestLevel)
	})
	ic.promise("read path", ic.ReadAllocs == 0 || raceEnabled,
		"%.1f allocs/op on Snapshot+QueryLevel (%s)", ic.ReadAllocs, wantZeroAllocs())

	// Phase 5 — the wire: a v5 append batch through client → front
	// server → component over loopback TCP, visible to exact queries
	// after the next swap.
	if err := ic.runWirePhase(data, cfg); err != nil {
		ic.promise("wire", false, "%v", err)
	} else {
		ic.promise("wire", true, "v5 append acked (accepted %d, staged at epoch %d), visible to exact queries in %.1f ms",
			ic.WireAccepted, ic.WireEpoch, ic.WireVisibleMs)
	}
	return ic, nil
}

// runWirePhase drives the loopback-TCP smoke: two live component
// servers with merge workers, an aggregator, an ingest-enabled front
// server, and a client appending one batch then polling exact queries
// until the rows land.
func (ic *IngestCompare) runWirePhase(data *workload.FactsData, cfg agg.Config) error {
	const shards = 2
	lives := make([]*ingest.AggLive, shards)
	for i := range lives {
		l, err := StageAggLive(data.Subsets[i], cfg)
		if err != nil {
			return err
		}
		lives[i] = l
		defer ingest.NewWorker(l, ingest.WorkerOptions{Interval: time.Millisecond, CompactEvery: 16}).Close()
	}
	lb, err := netsvc.StartLoopback(netsvc.LoopbackSpec{
		Components: shards,
		Handler: func(i int) netsvc.Handler {
			return netsvc.NewLiveAggBackend(lives[i:i+1], netsvc.BackendOptions{})
		},
		Ingest: func(i int) netsvc.IngestHandler {
			return netsvc.NewLiveIngestHandler(netsvc.LiveStores{Agg: lives[i : i+1]})
		},
		Server: netsvc.ServerOptions{Workers: 2},
		Agg:    gatherAll,
		Front: func(agr *netsvc.Aggregator) (*netsvc.FrontServer, error) {
			fs := netsvc.NewFrontServer(agr, nil, netsvc.ServerOptions{Workers: 8})
			fs.EnableIngest(ingestCacheHot)
			return fs, nil
		},
	})
	if err != nil {
		return err
	}
	defer lb.Close()
	cl := lb.Client

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
	ack, err := cl.Ingest(ctx, &wire.IngestRequest{Kind: wire.KindAgg, Subset: 0, Agg: batch})
	if err != nil {
		return err
	}
	if ack.Status != wire.IngestOK || ack.Accepted != uint32(len(batch.Keys)) {
		return fmt.Errorf("ingest ack status %d accepted %d (err %q)", ack.Status, ack.Accepted, ack.Err)
	}
	ic.WireAccepted, ic.WireEpoch = ack.Accepted, ack.Epoch

	req := aggRequest(q)
	req.SLO = wire.SLOExact
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep, err := cl.Call(ctx, req)
		if err != nil {
			return err
		}
		if rep.Status != wire.ReplyOK {
			return fmt.Errorf("exact query status %d err %q", rep.Status, rep.Err)
		}
		got := netsvc.AggResultOf(rep.Agg)
		match := true
		for k := range want.Sum {
			if got.Sum[k] != want.Sum[k] || got.Cnt[k] != want.Cnt[k] {
				match = false
				break
			}
		}
		if match {
			ic.WireVisibleMs = float64(time.Since(t0)) / float64(time.Millisecond)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("appended batch never became visible to exact queries")
		}
		time.Sleep(time.Millisecond)
	}
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
