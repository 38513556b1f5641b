package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"accuracytrader/internal/cf"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/synopsis"
	"accuracytrader/internal/textindex"
	"accuracytrader/internal/workload"
)

// Fig3 is the synopsis-updating overhead experiment (paper Figure 3): for
// i = 1..10, update one component's synopsis after i% of the data points
// were added (category 1) or changed (category 2), and measure the wall
// time of the incremental update including re-aggregation.
type Fig3 struct {
	Percents   []int
	AddMs      []float64
	ChangeMs   []float64
	CreationMs float64 // full synopsis creation, for reference
	Repeats    int
}

// RunFig3 measures incremental updating on a CF data subset.
func RunFig3(sc Scale, repeats int) (*Fig3, error) {
	if repeats <= 0 {
		repeats = 3
	}
	rcfg := workload.DefaultRatingsConfig()
	rcfg.UsersPerSubset = sc.UsersPerSubset
	rcfg.Items = sc.Items
	rcfg.Seed = sc.Seed
	data := workload.GenerateRatings(rcfg, 1)
	m := data.Subsets[0]

	t0 := time.Now()
	base, err := cf.BuildComponent(m, sc.synopsisConfig())
	if err != nil {
		return nil, err
	}
	creationMs := float64(time.Since(t0)) / float64(time.Millisecond)

	// Persist once; every scenario resumes from the stored synopsis, as
	// the paper prescribes.
	var img bytes.Buffer
	if err := base.Syn.Save(&img); err != nil {
		return nil, err
	}
	snapshot := img.Bytes()

	out := &Fig3{CreationMs: creationMs, Repeats: repeats}
	rng := stats.NewRNG(sc.Seed ^ 0xf16)
	for i := 1; i <= 10; i++ {
		n := m.NumUsers() * i / 100
		if n < 1 {
			n = 1
		}
		var addSum, chSum stats.Summary
		for r := 0; r < repeats; r++ {
			addMs, err := timeUpdate(sc, data, snapshot, rng, n, synopsis.Add)
			if err != nil {
				return nil, err
			}
			addSum.Add(addMs)
			chMs, err := timeUpdate(sc, data, snapshot, rng, n, synopsis.Modify)
			if err != nil {
				return nil, err
			}
			chSum.Add(chMs)
		}
		out.Percents = append(out.Percents, i)
		out.AddMs = append(out.AddMs, addSum.Mean())
		out.ChangeMs = append(out.ChangeMs, chSum.Mean())
	}
	return out, nil
}

// timeUpdate loads the stored synopsis, applies n changes of one kind and
// returns the update wall time (ms).
func timeUpdate(sc Scale, data *workload.RatingsData, snapshot []byte, rng *stats.RNG, n int, kind synopsis.Kind) (float64, error) {
	rcfg := workload.DefaultRatingsConfig()
	rcfg.UsersPerSubset = sc.UsersPerSubset
	rcfg.Items = sc.Items
	rcfg.Seed = sc.Seed
	fresh := workload.GenerateRatings(rcfg, 1)
	m := fresh.Subsets[0]
	syn, err := synopsis.Load(bytes.NewReader(snapshot))
	if err != nil {
		return 0, err
	}
	comp := &cf.Component{M: m, Syn: syn}
	comp.Aggs = synopsis.Aggregate(syn.Groups(), nil, m.AggregateGroup)

	reqs := data.SampleCFRequests(rng.Uint64(), n, 0.2)
	changes := make([]synopsis.Change, 0, n)
	for k := 0; k < n; k++ {
		var ratings []cf.Rating
		if k < len(reqs) {
			ratings = reqs[k].Known
		} else {
			ratings = m.Ratings(k % m.NumUsers())
		}
		switch kind {
		case synopsis.Add:
			uid := m.AddUser(ratings)
			changes = append(changes, synopsis.Change{Kind: synopsis.Add, Cells: cf.FeatureSource{M: m}.Features(uid)})
		case synopsis.Modify:
			target := (k * 7) % sc.UsersPerSubset
			m.SetUser(target, ratings)
			changes = append(changes, synopsis.Change{Kind: synopsis.Modify, Point: target, Cells: cf.FeatureSource{M: m}.Features(target)})
		}
	}
	t0 := time.Now()
	if _, err := comp.ApplyChanges(changes); err != nil {
		return 0, err
	}
	return float64(time.Since(t0)) / float64(time.Millisecond), nil
}

// Render prints the Figure 3 analogue.
func (f *Fig3) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 3. Synopsis updating time (ms) vs proportion of changed input data\n")
	fmt.Fprintf(&b, "(synopsis creation for reference: %.0f ms; mean of %d repeats)\n", f.CreationMs, f.Repeats)
	writeSeries(&b, "percent changed", intsToFloats(f.Percents))
	writeSeries(&b, "new points added", f.AddMs)
	writeSeries(&b, "points changed", f.ChangeMs)
	return b.String()
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Fig4 is the synopsis-effectiveness experiment (paper Figure 4): rank
// the aggregated data points by estimated correlation, divide the ranking
// into 10 sections, and measure how the accuracy-relevant original data
// points distribute over the sections.
type Fig4 struct {
	// SectionsCF[i] is the average percentage of highly related original
	// users (|weight| > 0.8 to the active user) among the users of ranked
	// section i (Figure 4a).
	SectionsCF [10]float64
	// SectionsSearch[i] is the average percentage of the actual top-10
	// pages found in ranked section i (Figure 4b; sums to <= 100).
	SectionsSearch [10]float64
	RequestsCF     int
	RequestsSearch int
}

// RunFig4 evaluates correlation ranking quality on both services.
func RunFig4(cfSvc *CFService, searchSvc *SearchService, nRequests int) (*Fig4, error) {
	out := &Fig4{}
	// (a) Recommender: weights between active users and aggregated users.
	reqs := cfSvc.Data.SampleCFRequests(cfSvc.Scale.Seed^0xf4a, nRequests, 0.2)
	var secHit, secTotal [10]float64
	for i, spec := range reqs {
		comp := cfSvc.Comps[i%len(cfSvc.Comps)]
		req := cf.NewRequest(spec.Known, spec.Targets)
		corr := make([]float64, len(comp.Aggs))
		for g, ag := range comp.Aggs {
			corr[g] = math.Abs(cf.Weight(req.Ratings, ag.Ratings))
		}
		ranking := rankDesc(corr)
		for pos, g := range ranking {
			sec := pos * 10 / len(ranking)
			for _, u := range comp.Aggs[g].Members {
				w := cf.Weight(req.Ratings, comp.M.Ratings(u))
				secTotal[sec]++
				if w > 0.8 || w < -0.8 {
					secHit[sec]++
				}
			}
		}
	}
	for s := 0; s < 10; s++ {
		if secTotal[s] > 0 {
			out.SectionsCF[s] = 100 * secHit[s] / secTotal[s]
		}
	}
	out.RequestsCF = len(reqs)

	// (b) Search: aggregated-page ranking vs actual top-10 membership.
	queries := searchSvc.Data.SampleQueries(searchSvc.Scale.Seed^0xf4b, nRequests)
	var secTop [10]float64
	totalTop := 0.0
	for i, qs := range queries {
		comp := searchSvc.Comps[i%len(searchSvc.Comps)]
		q := comp.Ix.ParseQuery(qs)
		if len(q.Terms) == 0 {
			continue
		}
		actual := textindex.ExactTopK(comp, q, 10)
		if len(actual) == 0 {
			continue
		}
		top := make(map[int]bool, len(actual))
		for _, h := range actual {
			top[h.Doc] = true
		}
		corr := make([]float64, len(comp.Aggs))
		for g, ap := range comp.Aggs {
			corr[g] = ap.Score(comp.Ix, q)
		}
		ranking := rankDesc(corr)
		for pos, g := range ranking {
			sec := pos * 10 / len(ranking)
			for _, d := range comp.Aggs[g].Members {
				if top[d] {
					secTop[sec]++
					totalTop++
				}
			}
		}
	}
	if totalTop > 0 {
		for s := 0; s < 10; s++ {
			out.SectionsSearch[s] = 100 * secTop[s] / totalTop
		}
	}
	out.RequestsSearch = len(queries)
	return out, nil
}

func rankDesc(corr []float64) []int {
	ids := make([]int, len(corr))
	for i := range ids {
		ids[i] = i
	}
	for i := range ids {
		best := i
		for j := i + 1; j < len(ids); j++ {
			if corr[ids[j]] > corr[ids[best]] {
				best = j
			}
		}
		ids[i], ids[best] = ids[best], ids[i]
	}
	return ids
}

// TopSectionsShare returns the cumulative share (0..100) of the actual
// top-10 pages contained in the first k of the 10 ranked sections — the
// statistic behind the paper's imax=40% setting (top 4 sections hold
// >98%).
func (f *Fig4) TopSectionsShare(k int) float64 {
	s := 0.0
	for i := 0; i < k && i < 10; i++ {
		s += f.SectionsSearch[i]
	}
	return s
}

// Render prints the Figure 4 analogue.
func (f *Fig4) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 4. Identifying highly related original data points with synopses\n")
	fmt.Fprintf(&b, "(a) recommender, %d active users: %% of highly related users per ranked section\n", f.RequestsCF)
	writeSeries(&b, "section", sectionIdx())
	writeSeries(&b, "% highly related", f.SectionsCF[:])
	fmt.Fprintf(&b, "(b) search engine, %d queries: %% of actual top-10 pages per ranked section\n", f.RequestsSearch)
	writeSeries(&b, "section", sectionIdx())
	writeSeries(&b, "% of actual top-10", f.SectionsSearch[:])
	fmt.Fprintf(&b, "top-4 sections hold %.2f%% of the actual top-10 pages\n", f.TopSectionsShare(4))
	return b.String()
}

func sectionIdx() []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}
