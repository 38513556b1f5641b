package experiments

import (
	"fmt"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cf"
	"accuracytrader/internal/cluster"
	"accuracytrader/internal/interference"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/svd"
	"accuracytrader/internal/synopsis"
	"accuracytrader/internal/textindex"
	"accuracytrader/internal/workload"
)

// synopsisConfig returns the offline-module configuration for a scale.
func (s Scale) synopsisConfig() synopsis.Config {
	return synopsis.Config{
		SVD:              svd.Config{Dims: 3, Epochs: 25, Seed: s.Seed ^ 0x5f},
		CompressionRatio: s.CompressionRatio,
		FoldInEpochs:     25,
	}
}

// CFService bundles the recommender's real data shards with the work
// models the cluster simulator needs.
type CFService struct {
	Scale Scale
	Data  *workload.RatingsData
	Comps []*cf.Component     // one per shard
	Work  []cluster.WorkModel // one per simulated component
}

// BuildCFService generates rating shards and builds each shard's synopsis
// and aggregated users.
func BuildCFService(sc Scale) (*CFService, error) {
	rcfg := workload.DefaultRatingsConfig()
	rcfg.UsersPerSubset = sc.UsersPerSubset
	rcfg.Items = sc.Items
	rcfg.Seed = sc.Seed
	data := workload.GenerateRatings(rcfg, sc.Shards)
	svc := &CFService{Scale: sc, Data: data}
	for _, m := range data.Subsets {
		comp, err := cf.BuildComponent(m, sc.synopsisConfig())
		if err != nil {
			return nil, fmt.Errorf("experiments: build CF component: %w", err)
		}
		svc.Comps = append(svc.Comps, comp)
	}
	svc.Work = make([]cluster.WorkModel, sc.Components)
	for c := 0; c < sc.Components; c++ {
		comp := svc.Comps[c%sc.Shards]
		svc.Work[c] = cluster.WorkModel{
			FullUnits:     float64(comp.M.NumUsers()),
			SynopsisUnits: float64(len(comp.Aggs)),
			NumGroups:     len(comp.Aggs),
		}
	}
	return svc, nil
}

// SearchService bundles the search engine's real data shards with the
// work models of the cluster simulator.
type SearchService struct {
	Scale Scale
	Data  *workload.CorpusData
	Comps []*textindex.Component
	Work  []cluster.WorkModel
}

// BuildSearchService generates corpus shards and builds their synopses and
// aggregated pages.
func BuildSearchService(sc Scale) (*SearchService, error) {
	ccfg := workload.DefaultCorpusConfig()
	ccfg.DocsPerSubset = sc.DocsPerSubset
	ccfg.Seed = sc.Seed
	data := workload.GenerateCorpus(ccfg, sc.Shards)
	svc := &SearchService{Scale: sc, Data: data}
	for _, ix := range data.Subsets {
		comp, err := textindex.BuildComponent(ix, sc.synopsisConfig())
		if err != nil {
			return nil, fmt.Errorf("experiments: build search component: %w", err)
		}
		svc.Comps = append(svc.Comps, comp)
	}
	svc.Work = make([]cluster.WorkModel, sc.Components)
	for c := 0; c < sc.Components; c++ {
		comp := svc.Comps[c%sc.Shards]
		svc.Work[c] = cluster.WorkModel{
			FullUnits:     float64(comp.Ix.NumDocs()),
			SynopsisUnits: float64(comp.SynopsisSize()),
			NumGroups:     len(comp.Aggs),
		}
	}
	return svc, nil
}

// aggConfig returns the aggregation application's synopsis-ladder
// configuration for a scale. The finest rate and the per-stratum floor
// are sized so the finest level's measured accuracy clears the
// Bounded{0.90} SLO floor with margin at every scale.
func (s Scale) aggConfig() agg.Config {
	return agg.Config{
		Rates:     []float64{0.03, 0.08, 0.18, 0.40},
		MinSample: 8,
		Seed:      s.Seed ^ 0xa9,
	}
}

// AggConfig exposes the scale's synopsis-ladder configuration so live
// (streaming-ingest) shards compact with the same ladder the frozen
// builds use.
func (s Scale) AggConfig() agg.Config { return s.aggConfig() }

// AggService bundles the aggregation workload's real fact-table shards
// with the work models the cluster simulator needs.
type AggService struct {
	Scale Scale
	Data  *workload.FactsData
	Comps []*agg.Component
	Work  []cluster.WorkModel
}

// BuildAggService generates fact-table shards and builds each shard's
// stratified-sample synopsis ladder.
func BuildAggService(sc Scale) (*AggService, error) {
	fcfg := workload.DefaultFactsConfig()
	fcfg.RowsPerSubset = sc.FactRowsPerSubset
	fcfg.Keys = sc.FactKeys
	fcfg.Seed = sc.Seed
	data := workload.GenerateFacts(fcfg, sc.Shards)
	svc := &AggService{Scale: sc, Data: data}
	for _, t := range data.Subsets {
		comp, err := agg.BuildComponent(t, sc.aggConfig())
		if err != nil {
			return nil, fmt.Errorf("experiments: build agg component: %w", err)
		}
		svc.Comps = append(svc.Comps, comp)
	}
	svc.Work = make([]cluster.WorkModel, sc.Components)
	for c := 0; c < sc.Components; c++ {
		comp := svc.Comps[c%sc.Shards]
		syn := comp.Syn
		ladder := make([]float64, syn.Levels())
		for l := range ladder {
			ladder[l] = float64(syn.SampleUnits(l))
		}
		svc.Work[c] = cluster.WorkModel{
			FullUnits:      float64(comp.T.NumRows()),
			SynopsisUnits:  float64(comp.SynopsisSize()),
			NumGroups:      syn.NumStrata(),
			SynopsisLadder: ladder,
		}
	}
	return svc, nil
}

// slowdownFunc builds the per-node interference slowdown used by all
// latency runs: one independent trace per component over the horizon.
func slowdownFunc(seed uint64, components int, horizonMs float64) func(int, float64) float64 {
	traces := interference.GenerateNodes(stats.NewRNG(seed^0x1f2e3d4c), components, horizonMs, interference.DefaultConfig())
	return func(c int, t float64) float64 { return traces[c].At(t) }
}
