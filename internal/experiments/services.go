package experiments

import (
	"fmt"
	"sort"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cf"
	"accuracytrader/internal/cluster"
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
// latency runs: one independent trace per component over the horizon,
// each from a split of the base RNG, mirroring the paper's per-node
// co-location.
func slowdownFunc(seed uint64, components int, horizonMs float64) func(int, float64) float64 {
	rng := stats.NewRNG(seed ^ 0x1f2e3d4c)
	traces := make([]*slowdownTrace, components)
	for i := range traces {
		traces[i] = generateSlowdown(rng.Split(uint64(i)+1), horizonMs)
	}
	return func(c int, t float64) float64 { return traces[c].at(t) }
}

// The interference from co-located MapReduce workloads (paper §4.1:
// WordCount and Sort jobs replayed from the SWIM/Facebook trace with
// BigDataBench-MT). What the tail-latency experiments need from the
// co-located jobs is their effect: a time-varying, bursty, node-specific
// slowdown of the service components. Jobs arrive at each node as a
// Poisson process, job durations are heavy-tailed (lognormal — the SWIM
// Facebook trace is dominated by short jobs with a long tail), and each
// running job contributes a slowdown depending on its class (CPU-bound
// WordCount vs I/O-bound Sort). The intensity is calibrated so the
// time-weighted mean node slowdown is ~1.2-1.3 with occasional bursts of
// several x — co-location that perturbs the tail without saturating the
// nodes by itself.
const (
	jobsPerSecond = 0.35 // mean arrival rate of co-located jobs
	cpuJobShare   = 0.5  // CPU-bound (WordCount-like) share; the rest are I/O-bound (Sort-like)
	// The lognormal job duration: mean scale and log-space sigma.
	jobDurationMs    = 500
	jobDurationSigma = 1.1
	// Per-job slowdown contributions: a node running one CPU job
	// processes service work (1+cpuJobSlow) times slower.
	cpuJobSlow  = 0.9
	ioJobSlow   = 0.5
	maxSlowdown = 4 // cap on the total node slowdown factor
)

// slowdownTrace is a piecewise-constant slowdown function of virtual
// time for one node.
type slowdownTrace struct {
	times []float64 // segment start times, ascending; times[0] == 0
	slow  []float64 // slowdown factor of each segment (>= 1)
}

// at returns the node slowdown factor at time t (ms). Times before 0 or
// after the generated horizon clamp to the nearest segment.
func (tr *slowdownTrace) at(t float64) float64 {
	if len(tr.times) == 0 {
		return 1
	}
	i := sort.SearchFloat64s(tr.times, t)
	// SearchFloat64s returns the first index with times[i] >= t; the
	// segment covering t starts one earlier unless t hits a boundary.
	if i == len(tr.times) || tr.times[i] > t {
		i--
	}
	if i < 0 {
		i = 0
	}
	return tr.slow[i]
}

// generateSlowdown builds a slowdown trace covering [0, horizonMs) for
// one node.
func generateSlowdown(rng *stats.RNG, horizonMs float64) *slowdownTrace {
	type edge struct {
		t     float64
		delta float64
	}
	var edges []edge
	// Job arrivals over the horizon (also admit jobs that started before
	// time 0 by extending the generation window backwards one mean
	// duration, so the trace does not start artificially idle).
	t := -2.0 * jobDurationMs
	for {
		t += rng.Exp(jobsPerSecond / 1000) // rate per ms
		if t >= horizonMs {
			break
		}
		dur := rng.LogNormal(0, jobDurationSigma) * jobDurationMs
		slow := ioJobSlow
		if rng.Float64() < cpuJobShare {
			slow = cpuJobSlow
		}
		// Scale the contribution a little per job so bursts differ.
		slow *= 0.5 + rng.Float64()
		edges = append(edges, edge{t: t, delta: slow}, edge{t: t + dur, delta: -slow})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	tr := &slowdownTrace{times: []float64{0}, slow: []float64{1}}
	level := 0.0
	for _, e := range edges {
		if e.t < 0 {
			level += e.delta
			tr.slow[0] = clampSlow(1 + level)
			continue
		}
		if e.t >= horizonMs {
			break
		}
		level += e.delta
		s := clampSlow(1 + level)
		if e.t == tr.times[len(tr.times)-1] {
			tr.slow[len(tr.slow)-1] = s
			continue
		}
		tr.times = append(tr.times, e.t)
		tr.slow = append(tr.slow, s)
	}
	return tr
}

func clampSlow(s float64) float64 {
	if s < 1 {
		return 1
	}
	if s > maxSlowdown {
		return maxSlowdown
	}
	return s
}
