package textindex

import (
	"math"
	"slices"
	"sort"
	"sync"

	"accuracytrader/internal/synopsis"
	"accuracytrader/internal/topk"
)

// AggregatedPage is one synopsis point for text data: the paper's step-3
// aggregation merges the member pages' contents, so its term vector is the
// element-wise sum of the members' and its length their total length.
type AggregatedPage struct {
	GroupID int64
	Terms   []TermFreq // sorted by term
	Len     int
	Members []int
}

// aggregate merges the member documents of one group
// (synopsis.Aggregate's per-group step for text data).
func (ix *Index) aggregate(g synopsis.Group) AggregatedPage {
	freqs := make(map[int32]int32)
	length := 0
	for _, d := range g.Members {
		for _, e := range ix.termVec(d) {
			freqs[e.Term] += e.Freq
		}
		length += ix.docLen[d]
	}
	ap := AggregatedPage{GroupID: g.ID, Members: g.Members, Len: length}
	if len(freqs) > 0 {
		ap.Terms = make([]TermFreq, 0, len(freqs))
	}
	for t, f := range freqs {
		ap.Terms = append(ap.Terms, TermFreq{Term: t, Freq: f})
	}
	slices.SortFunc(ap.Terms, func(a, b TermFreq) int { return int(a.Term) - int(b.Term) })
	return ap
}

// Score computes the aggregated page's similarity to a query using the
// same classic TF-IDF formula as real pages (idf from the backing index).
func (ap AggregatedPage) Score(ix *Index, q Query) float64 {
	sum := 0.0
	matched := 0
	for qi, t := range q.Terms {
		k := sort.Search(len(ap.Terms), func(i int) bool { return ap.Terms[i].Term >= t })
		if k < len(ap.Terms) && ap.Terms[k].Term == t {
			sum += math.Sqrt(float64(ap.Terms[k].Freq)) * q.idf2[qi]
			matched++
		}
	}
	return ix.finalScore(sum, matched, len(q.Terms), ap.Len)
}

// Component is one parallel service component of the search engine: its
// index subset plus the synopsis and cached aggregated pages.
type Component struct {
	Ix   *Index
	Syn  *synopsis.Synopsis
	Aggs []AggregatedPage
}

// BuildComponent packs the index's rows, then creates the component's
// synopsis and aggregates every group.
func BuildComponent(ix *Index, cfg synopsis.Config) (*Component, error) {
	ix.postings.Pack()
	ix.docTerms.Pack()
	syn, err := synopsis.Build(FeatureSource{Ix: ix}, cfg)
	if err != nil {
		return nil, err
	}
	c := &Component{Ix: ix, Syn: syn}
	c.reaggregate(nil)
	return c, nil
}

func (c *Component) reaggregate(prev map[int64]AggregatedPage) {
	c.Aggs = synopsis.Aggregate(c.Syn.Groups(), prev, c.Ix.aggregate)
}

// ApplyChanges routes input-data changes through the synopsis updater and
// re-aggregates only changed groups. The index must already reflect the
// changes (Add/Update/Delete) before calling.
func (c *Component) ApplyChanges(changes []synopsis.Change) (synopsis.UpdateStats, error) {
	prev := make(map[int64]AggregatedPage, len(c.Aggs))
	for _, ap := range c.Aggs {
		prev[ap.GroupID] = ap
	}
	st, err := c.Syn.Update(changes)
	if err != nil {
		return st, err
	}
	c.reaggregate(prev)
	return st, nil
}

// SynopsisSize returns the number of aggregated pages.
func (c *Component) SynopsisSize() int { return len(c.Aggs) }

// GroupSize returns the number of member pages of group g (the
// simulator's unit of improvement work).
func (c *Component) GroupSize(g int) int { return len(c.Aggs[g].Members) }

// Engine runs Algorithm 1 for one search request on one component. The
// correlation of an aggregated page is its similarity score to the query
// (paper §2.3: a higher aggregated score means the member pages have
// higher scores on average and are likelier to hold actual top-k pages).
type Engine struct {
	Comp *Component
	Q    Query

	aggScores []float64
	processed []bool
	scored    []Hit
	sel       topk.Selector
	order     []int
}

// NewEngine prepares an engine for a parsed query.
func NewEngine(c *Component, q Query) *Engine {
	e := &Engine{}
	e.Reset(c, q)
	return e
}

// Reset re-targets the engine at a component and query, reusing all
// internal buffers — the query's included: Q is the engine's own copy,
// so a caller may reuse q's storage as soon as Reset returns. It makes
// engines poolable: the live runtime and the experiment replays process
// a request stream with a handful of engines instead of allocating one
// per request.
func (e *Engine) Reset(c *Component, q Query) {
	e.Comp = c
	e.Q = Query{Terms: append(e.Q.Terms[:0], q.Terms...), idf2: append(e.Q.idf2[:0], q.idf2...)}
	e.aggScores = e.aggScores[:0]
	e.processed = e.processed[:0]
	e.scored = e.scored[:0]
}

// enginePool recycles Engines across requests (see GetEngine).
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// GetEngine returns a pooled engine reset for the query. Release it with
// Engine.Release when the request is finished.
func GetEngine(c *Component, q Query) *Engine {
	e := enginePool.Get().(*Engine)
	e.Reset(c, q)
	return e
}

// Release returns the engine to the pool. The engine (and any slice
// obtained from its ProcessSynopsis) must not be used afterwards.
func (e *Engine) Release() {
	e.Comp = nil
	enginePool.Put(e)
}

// ProcessSynopsis scores every aggregated page and returns those scores as
// the correlation estimates. The returned slice is owned by the engine
// and valid until the next Reset or Release.
func (e *Engine) ProcessSynopsis() []float64 {
	m := len(e.Comp.Aggs)
	if cap(e.aggScores) < m {
		e.aggScores = make([]float64, m)
	} else {
		e.aggScores = e.aggScores[:m]
	}
	if cap(e.processed) < m {
		e.processed = make([]bool, m)
	} else {
		e.processed = e.processed[:m]
		clear(e.processed)
	}
	for g, ap := range e.Comp.Aggs {
		e.aggScores[g] = ap.Score(e.Comp.Ix, e.Q)
	}
	return e.aggScores
}

// ProcessSet improves the result by scoring group g's original pages
// exactly.
func (e *Engine) ProcessSet(g int) {
	if e.processed[g] {
		return
	}
	e.processed[g] = true
	for _, d := range e.Comp.Aggs[g].Members {
		if s := e.Comp.Ix.ScoreDoc(e.Q, d); s > 0 {
			e.scored = append(e.scored, Hit{Doc: d, Score: s})
		}
	}
}

// TopK returns the component's current best-k result: exactly scored
// pages first; if fewer than k, the remainder is filled with member pages
// of the best unprocessed aggregated pages in descending aggregated score
// (the synopsis-only initial result of Algorithm 1 line 1).
func (e *Engine) TopK(k int) []Hit {
	hits := make([]Hit, 0, max(k, 0))
	e.TopKEach(k, func(doc int, score float64) { hits = append(hits, Hit{Doc: doc, Score: score}) })
	return hits
}

// TopKEach is TopK handing each hit to emit in rank order instead of
// collecting them: a caller that keeps hits in a form of its own (a wire
// reply) builds no intermediate hit list.
func (e *Engine) TopKEach(k int, emit func(doc int, score float64)) {
	// Bounded top-k selection over the exactly scored pages: no full sort,
	// no per-call copy of the scored list.
	e.sel.Reset(k)
	for _, h := range e.scored {
		e.sel.Offer(h.Doc, h.Score)
	}
	n := 0
	for _, it := range e.sel.Sorted() {
		emit(it.ID, it.Score)
		n++
	}
	if len(e.scored) >= k {
		return
	}
	// Fill from unprocessed groups by aggregated rank.
	e.order = e.order[:0]
	for g := range e.aggScores {
		if !e.processed[g] && e.aggScores[g] > 0 {
			e.order = append(e.order, g)
		}
	}
	order := e.order
	sort.Slice(order, func(a, b int) bool {
		if e.aggScores[order[a]] != e.aggScores[order[b]] {
			return e.aggScores[order[a]] > e.aggScores[order[b]]
		}
		return order[a] < order[b]
	})
	for _, g := range order {
		for _, d := range e.Comp.Aggs[g].Members {
			if !e.Comp.Ix.Alive(d) {
				continue
			}
			// Filler pages carry the aggregated score as an estimate.
			emit(d, e.aggScores[g])
			if n++; n >= k {
				return
			}
		}
	}
}

// ExactTopK is the component's exact result over its whole subset.
func ExactTopK(c *Component, q Query, k int) []Hit {
	return c.Ix.Search(q, k)
}

// TopKOverlap returns the fraction of the actual top-k documents present
// in the retrieved hits — the paper's search accuracy metric.
func TopKOverlap(actual, retrieved []Hit) float64 {
	if len(actual) == 0 {
		return 1
	}
	in := make(map[int]bool, len(retrieved))
	for _, h := range retrieved {
		in[h.Doc] = true
	}
	n := 0
	for _, h := range actual {
		if in[h.Doc] {
			n++
		}
	}
	return float64(n) / float64(len(actual))
}

// MergeTopK merges per-component hit lists into a global top-k via
// bounded selection (no concatenated copy, no full sort).
func MergeTopK(parts [][]Hit, k int) []Hit {
	var sel topk.Selector
	sel.Reset(k)
	n := 0
	for _, p := range parts {
		n += len(p)
		for _, h := range p {
			sel.Offer(h.Doc, h.Score)
		}
	}
	if n < k {
		k = n
	}
	out := make([]Hit, 0, k)
	for _, it := range sel.Sorted() {
		out = append(out, Hit{Doc: it.ID, Score: it.Score})
	}
	return out
}
