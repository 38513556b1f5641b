// Benchmark harness: one benchmark per paper table and figure (regenerate
// with `go test -bench=. -benchmem`), plus ablation benchmarks for the
// design choices of ARCHITECTURE.md § Offline dataflow and § Online
// dataflow and micro-benchmarks for the hot substrate paths.
//
// The experiment benchmarks report the headline domain metrics through
// b.ReportMetric (tail latencies in ms, accuracy losses in %), so a bench
// run doubles as a compact reproduction record.
package accuracytrader

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cf"
	"accuracytrader/internal/cluster"
	"accuracytrader/internal/core"
	"accuracytrader/internal/experiments"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/rtree"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/svd"
	"accuracytrader/internal/synopsis"
	"accuracytrader/internal/textindex"
	"accuracytrader/internal/workload"
)

// Shared services, built once: benchmarks measure experiments, not the
// offline build.
var (
	benchOnce   sync.Once
	benchCF     *experiments.CFService
	benchSearch *experiments.SearchService
)

func services(b *testing.B) (*experiments.CFService, *experiments.SearchService) {
	b.Helper()
	benchOnce.Do(func() {
		sc := experiments.QuickScale()
		var err error
		if benchCF, err = experiments.BuildCFService(sc); err != nil {
			panic(err)
		}
		if benchSearch, err = experiments.BuildSearchService(sc); err != nil {
			panic(err)
		}
	})
	return benchCF, benchSearch
}

// BenchmarkTable1 regenerates Table 1 (99.9th percentile component
// latency, CF workloads) and reports the heavy-load tails.
func BenchmarkTable1(b *testing.B) {
	svc, _ := services(b)
	var res *experiments.CFComparison
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunCFComparison(svc, []float64{20, 60, 100})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.BasicTail[2], "basic_p999_ms")
	b.ReportMetric(res.ReissueTail[2], "reissue_p999_ms")
	b.ReportMetric(res.ATTail[2], "at_p999_ms")
}

// BenchmarkTable2 regenerates Table 2 (accuracy losses, CF workloads).
func BenchmarkTable2(b *testing.B) {
	svc, _ := services(b)
	var res *experiments.CFComparison
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunCFComparison(svc, []float64{20, 60, 100})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PartialLoss[2], "partial_loss_pct")
	b.ReportMetric(res.ATLoss[2], "at_loss_pct")
}

// BenchmarkFig3Update measures incremental synopsis updating (Figure 3).
func BenchmarkFig3Update(b *testing.B) {
	var f3 *experiments.Fig3
	var err error
	for i := 0; i < b.N; i++ {
		f3, err = experiments.RunFig3(experiments.QuickScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f3.AddMs[9], "add10pct_ms")
	b.ReportMetric(f3.ChangeMs[9], "change10pct_ms")
	b.ReportMetric(f3.CreationMs, "creation_ms")
}

// BenchmarkFig4 regenerates the synopsis-effectiveness sections
// (Figure 4) and reports the concentration statistics.
func BenchmarkFig4(b *testing.B) {
	cfSvc, sSvc := services(b)
	var f4 *experiments.Fig4
	var err error
	for i := 0; i < b.N; i++ {
		f4, err = experiments.RunFig4(cfSvc, sSvc, 60)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f4.SectionsCF[0], "cf_section1_pct")
	b.ReportMetric(f4.SectionsSearch[0], "search_section1_pct")
	b.ReportMetric(f4.TopSectionsShare(4), "search_top4_pct")
}

// BenchmarkFig5 regenerates the per-minute latency panels for hours
// 9/10/24 (Figure 5; the same run yields Figure 6).
func BenchmarkFig5(b *testing.B) {
	_, svc := services(b)
	var hf *experiments.HourFigures
	var err error
	for i := 0; i < b.N; i++ {
		hf, err = experiments.RunHourFigures(svc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(experiments.TailOverall(hf.Windows[0].Basic, 99.9), "hour9_basic_p999_ms")
	b.ReportMetric(experiments.TailOverall(hf.Windows[0].AT, 99.9), "hour9_at_p999_ms")
}

// BenchmarkFig6 reports the accuracy-loss side of the hour runs.
func BenchmarkFig6(b *testing.B) {
	_, svc := services(b)
	var hf *experiments.HourFigures
	var err error
	for i := 0; i < b.N; i++ {
		hf, err = experiments.RunHourFigures(svc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hf.Windows[0].MeanLoss("partial"), "hour9_partial_loss_pct")
	b.ReportMetric(hf.Windows[0].MeanLoss("at"), "hour9_at_loss_pct")
}

// BenchmarkFig7 regenerates the 24-hour latency panels (Figure 7; the
// same run yields Figure 8).
func BenchmarkFig7(b *testing.B) {
	_, svc := services(b)
	var day *experiments.DayFigures
	var err error
	for i := 0; i < b.N; i++ {
		day, err = experiments.RunDayFigures(svc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(day.BasicTail[20], "hour21_basic_p999_ms")
	b.ReportMetric(day.ATTail[20], "hour21_at_p999_ms")
}

// BenchmarkFig8 reports the 24-hour accuracy losses.
func BenchmarkFig8(b *testing.B) {
	_, svc := services(b)
	var day *experiments.DayFigures
	var err error
	for i := 0; i < b.N; i++ {
		day, err = experiments.RunDayFigures(svc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(day.PartialLoss[20], "hour21_partial_loss_pct")
	b.ReportMetric(day.ATLoss[20], "hour21_at_loss_pct")
}

// BenchmarkSynopsisCreationCF measures full synopsis creation for one CF
// subset (paper §4.2 creation overheads).
func BenchmarkSynopsisCreationCF(b *testing.B) {
	sc := experiments.QuickScale()
	rcfg := workload.DefaultRatingsConfig()
	rcfg.UsersPerSubset = sc.UsersPerSubset
	rcfg.Items = sc.Items
	rcfg.Seed = 1
	m := workload.GenerateRatings(rcfg, 1).Subsets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cf.BuildComponent(m, synopsis.Config{
			SVD:              svd.Config{Dims: 3, Epochs: 25, Seed: 1},
			CompressionRatio: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynopsisCreationSearch measures full synopsis creation for one
// search subset.
func BenchmarkSynopsisCreationSearch(b *testing.B) {
	sc := experiments.QuickScale()
	ccfg := workload.DefaultCorpusConfig()
	ccfg.DocsPerSubset = sc.DocsPerSubset
	ccfg.Seed = 1
	ix := workload.GenerateCorpus(ccfg, 1).Subsets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := textindex.BuildComponent(ix, synopsis.Config{
			SVD:              svd.Config{Dims: 3, Epochs: 25, Seed: 1},
			CompressionRatio: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (ARCHITECTURE.md § Offline dataflow, § Online dataflow) ---

// BenchmarkAblationRatio sweeps the synopsis compression ratio and
// reports the synopsis-only (initial result) top-10 overlap: smaller
// ratios give finer synopses — better initial accuracy at more synopsis
// work.
func BenchmarkAblationRatio(b *testing.B) {
	ccfg := workload.DefaultCorpusConfig()
	ccfg.Seed = 3
	data := workload.GenerateCorpus(ccfg, 1)
	for _, ratio := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("ratio=%d", ratio), func(b *testing.B) {
			comp, err := textindex.BuildComponent(data.Subsets[0], synopsis.Config{
				SVD:              svd.Config{Dims: 3, Epochs: 25, Seed: 3},
				CompressionRatio: ratio,
			})
			if err != nil {
				b.Fatal(err)
			}
			queries := data.SampleQueries(5, 40)
			var overlap float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sum stats.Summary
				for _, qs := range queries {
					q := comp.Ix.ParseQuery(qs)
					exact := textindex.ExactTopK(comp, q, 10)
					if len(exact) == 0 {
						continue
					}
					e := textindex.NewEngine(comp, q)
					e.ProcessSynopsis()
					sum.Add(textindex.TopKOverlap(exact, e.TopK(10)))
				}
				overlap = sum.Mean()
			}
			b.ReportMetric(100*overlap, "initial_overlap_pct")
			b.ReportMetric(float64(len(comp.Aggs)), "groups")
		})
	}
}

// BenchmarkAblationRanking isolates the paper's key idea: processing the
// most correlated sets first vs processing sets in arbitrary (id) order,
// at a fixed budget of 25% of the sets.
func BenchmarkAblationRanking(b *testing.B) {
	_, sSvc := services(b)
	comp := sSvc.Comps[0]
	queries := sSvc.Data.SampleQueries(6, 40)
	for _, ranked := range []bool{true, false} {
		name := "ranked"
		if !ranked {
			name = "id-order"
		}
		b.Run(name, func(b *testing.B) {
			var overlap float64
			for i := 0; i < b.N; i++ {
				var sum stats.Summary
				for _, qs := range queries {
					q := comp.Ix.ParseQuery(qs)
					exact := textindex.ExactTopK(comp, q, 10)
					if len(exact) == 0 {
						continue
					}
					e := textindex.NewEngine(comp, q)
					corr := e.ProcessSynopsis()
					budget := len(corr) / 4
					if ranked {
						for _, g := range core.Rank(corr)[:budget] {
							e.ProcessSet(g)
						}
					} else {
						for g := 0; g < budget; g++ {
							e.ProcessSet(g)
						}
					}
					sum.Add(textindex.TopKOverlap(exact, e.TopK(10)))
				}
				overlap = sum.Mean()
			}
			b.ReportMetric(100*overlap, "overlap_pct")
		})
	}
}

// BenchmarkAblationImax sweeps AccuracyTrader's imax cap (fraction of
// ranked sets) under heavy load and reports latency and loss — the
// trade-off behind the paper's 40% setting for search.
func BenchmarkAblationImax(b *testing.B) {
	_, svc := services(b)
	sc := svc.Scale
	arr := workload.PoissonArrivals(stats.NewRNG(7), 100, sc.SessionSeconds*1000)
	for _, frac := range []float64{0.2, 0.4, 1.0} {
		b.Run(fmt.Sprintf("imax=%.0f%%", 100*frac), func(b *testing.B) {
			var tail float64
			var res *cluster.Result
			for i := 0; i < b.N; i++ {
				cfg := cluster.Config{
					Components: sc.Components,
					Arrivals:   arr,
					Work:       svc.Work,
					UnitCostMs: 15.0 / float64(sc.DocsPerSubset),
					Technique:  cluster.AccuracyTrader,
					DeadlineMs: sc.DeadlineMs,
					IMaxFrac:   frac,
				}
				var err error
				res, err = cluster.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tail = stats.Percentile(res.ComponentLatencies(), 99.9)
			}
			var sets stats.Summary
			for _, ops := range res.Ops {
				for _, op := range ops {
					sets.Add(float64(op.SetsProcessed))
				}
			}
			b.ReportMetric(tail, "p999_ms")
			b.ReportMetric(sets.Mean(), "mean_sets")
		})
	}
}

// BenchmarkAblationRTree sweeps the R-tree fan-out used for synopsis
// grouping.
func BenchmarkAblationRTree(b *testing.B) {
	rcfg := workload.DefaultRatingsConfig()
	rcfg.Seed = 4
	m := workload.GenerateRatings(rcfg, 1).Subsets[0]
	for _, fanout := range []int{4, 8, 16} {
		min := fanout / 4
		if min < 2 {
			min = 2
		}
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			var groups int
			for i := 0; i < b.N; i++ {
				comp, err := cf.BuildComponent(m, synopsis.Config{
					SVD:              svd.Config{Dims: 3, Epochs: 25, Seed: 4},
					TreeMax:          fanout,
					TreeMin:          min,
					CompressionRatio: 8,
				})
				if err != nil {
					b.Fatal(err)
				}
				groups = len(comp.Aggs)
			}
			b.ReportMetric(float64(groups), "groups")
		})
	}
}

// BenchmarkAblationHedge sweeps the reissue hedge floor under moderate
// load.
func BenchmarkAblationHedge(b *testing.B) {
	svc, _ := services(b)
	sc := svc.Scale
	arr := workload.PoissonArrivals(stats.NewRNG(8), 40, sc.SessionSeconds*1000)
	for _, floor := range []float64{15, 30, 90} {
		b.Run(fmt.Sprintf("floor=%.0fms", floor), func(b *testing.B) {
			var tail float64
			for i := 0; i < b.N; i++ {
				cfg := cluster.Config{
					Components:   sc.Components,
					Arrivals:     arr,
					Work:         svc.Work,
					UnitCostMs:   15.0 / float64(sc.UsersPerSubset),
					Technique:    cluster.Reissue,
					DeadlineMs:   sc.DeadlineMs,
					HedgeFloorMs: floor,
				}
				res, err := cluster.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				tail = stats.Percentile(res.ComponentLatencies(), 99.9)
			}
			b.ReportMetric(tail, "p999_ms")
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkRTreeInsert(b *testing.B) {
	rng := stats.NewRNG(1)
	tr := rtree.New(3, rtree.DefaultMax/4, rtree.DefaultMax)
	pts := make([][]float64, 4096)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(pts[i%len(pts)], i)
	}
}

func BenchmarkRTreeBulkLoad(b *testing.B) {
	rng := stats.NewRNG(2)
	items := make([]rtree.Item, 2000)
	for i := range items {
		items[i] = rtree.Item{Point: []float64{rng.Float64(), rng.Float64(), rng.Float64()}, ID: i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtree.Bulk(3, 2, 8, items)
	}
}

func BenchmarkSVDTrain(b *testing.B) {
	rng := stats.NewRNG(3)
	m := svd.NewMatrix(200, 100)
	for r := 0; r < 200; r++ {
		for c := 0; c < 100; c++ {
			if rng.Float64() < 0.2 {
				m.Set(r, c, rng.Norm(3, 1))
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svd.Train(m, svd.Config{Dims: 3, Epochs: 10, Seed: 3})
	}
}

func BenchmarkCFWeight(b *testing.B) {
	rng := stats.NewRNG(4)
	mk := func() []cf.Rating {
		var rs []cf.Rating
		for i := 0; i < 200; i++ {
			if rng.Float64() < 0.3 {
				rs = append(rs, cf.Rating{Item: int32(i), Score: 1 + 4*rng.Float64()})
			}
		}
		return rs
	}
	a, c := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf.Weight(a, c)
	}
}

// BenchmarkCFExactScan measures the CF kernel where the cf-exact
// workload spends its request: exact scans of one benchmark-sized shard
// (400 users x 200 items), cycling through 16 sampled requests.
func BenchmarkCFExactScan(b *testing.B) {
	rcfg := workload.DefaultRatingsConfig()
	rcfg.Seed = 1
	data := workload.GenerateRatings(rcfg, 1)
	comp, err := cf.BuildComponent(data.Subsets[0], synopsis.Config{
		SVD:              svd.Config{Dims: 3, Epochs: 25, Seed: 1},
		CompressionRatio: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	sampled := data.SampleCFRequests(1, 16, 0.2)
	reqs := make([]cf.Request, len(sampled))
	for i, s := range sampled {
		reqs[i] = cf.NewRequest(s.Known, s.Targets)
	}
	var res cf.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = cf.ExactResultInto(res, comp, reqs[i%len(reqs)])
	}
}

// aggScanShapes builds the two shapes the agg kernel benchmarks scan,
// from the agg workloads' data and ladder: a benchmark-sized live shard
// (48 keys, Zipf 1.1, 20 000 compacted rows plus one published 2 000-row
// delta) and a frozen 4 000-row component, plus 16 sampled queries.
func aggScanShapes(b *testing.B) (*ingest.AggSnapshot, *agg.Component, []agg.Query) {
	b.Helper()
	cfg := agg.Config{Rates: []float64{0.03, 0.08, 0.18, 0.40}, MinSample: 8, Seed: 1}
	fcfg := workload.DefaultFactsConfig()
	fcfg.RowsPerSubset = 22000
	fcfg.Seed = 1
	data := workload.GenerateFacts(fcfg, 1)
	tab := data.Subsets[0]
	keys := make([]int32, tab.NumRows())
	vals := make([]float64, tab.NumRows())
	for r := range keys {
		keys[r], vals[r] = tab.Key(r), tab.Value(r)
	}
	l := ingest.NewAggLive(fcfg.Keys, cfg)
	if _, err := l.Append(keys[:20000], vals[:20000]); err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := l.Compact(); err != nil {
		b.Fatal(err)
	}
	if _, err := l.Append(keys[20000:], vals[20000:]); err != nil {
		b.Fatal(err)
	}
	l.PublishDelta()
	snap, _ := l.Snapshot()
	frozenTab := agg.NewTable(fcfg.Keys)
	for r := 0; r < 4000; r++ {
		frozenTab.Append(keys[r], vals[r])
	}
	frozen, err := agg.BuildComponent(frozenTab, cfg)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC() // the set-up's garbage is not the scan's cost
	return snap, frozen, data.SampleAggQueries(1, 16)
}

// BenchmarkAggExactScan measures the agg kernel where the exact class
// spends its request: every row of a shard through the masked scan,
// cycling through 16 sampled queries.
func BenchmarkAggExactScan(b *testing.B) {
	live, frozen, qs := aggScanShapes(b)
	var res agg.Result
	b.Run("live", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res = live.Exact(res, qs[i%len(qs)])
		}
	})
	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res = agg.ExactResultInto(res, frozen, qs[i%len(qs)])
		}
	})
}

// BenchmarkAggLevelScan measures the agg kernel on Algorithm 1's
// synopsis pass: the finest ladder level's (40%) samples of a shard,
// cycling through 16 sampled queries.
func BenchmarkAggLevelScan(b *testing.B) {
	live, frozen, qs := aggScanShapes(b)
	level := frozen.Syn.Levels() - 1
	var res agg.Result
	b.Run("live", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res = live.QueryLevel(res, qs[i%len(qs)], level)
		}
	})
	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := agg.GetEngine(frozen, qs[i%len(qs)], level)
			e.ProcessSynopsis()
			e.Release()
		}
	})
}

func BenchmarkSearchQuery(b *testing.B) {
	_, sSvc := services(b)
	ix := sSvc.Comps[0].Ix
	q := ix.ParseQuery(sSvc.Data.SampleQueries(9, 1)[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(q, 10)
	}
}

func BenchmarkEngineProcessSynopsis(b *testing.B) {
	cfSvc, _ := services(b)
	comp := cfSvc.Comps[0]
	spec := cfSvc.Data.SampleCFRequests(10, 1, 0.2)[0]
	req := cf.NewRequest(spec.Known, spec.Targets)
	// Steady-state pooled-engine path: Reset reuses the accumulators and
	// the target lookup, as the live runtime and the replays do.
	e := cf.NewEngine(comp, req)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(comp, req)
		e.ProcessSynopsis()
	}
}

// BenchmarkEngineProcessSynopsisCold measures the unpooled path
// (construct an engine per request) — the shape the pre-optimization
// BenchmarkEngineProcessSynopsis had, kept so cold-start regressions
// stay visible next to the steady-state number above.
func BenchmarkEngineProcessSynopsisCold(b *testing.B) {
	cfSvc, _ := services(b)
	comp := cfSvc.Comps[0]
	spec := cfSvc.Data.SampleCFRequests(10, 1, 0.2)[0]
	req := cf.NewRequest(spec.Known, spec.Targets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := cf.NewEngine(comp, req)
		e.ProcessSynopsis()
	}
}

func BenchmarkClusterSimulation(b *testing.B) {
	arr := workload.PoissonArrivals(stats.NewRNG(11), 50, 5000)
	cfg := cluster.Config{
		Components: 16,
		Arrivals:   arr,
		Work:       []cluster.WorkModel{{FullUnits: 400, SynopsisUnits: 20, NumGroups: 20}},
		UnitCostMs: 0.03,
		Technique:  cluster.AccuracyTrader,
		DeadlineMs: 100,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
