package textindex

import (
	"math"
	"slices"
	"sort"
	"sync"

	"accuracytrader/internal/csr"
	"accuracytrader/internal/svd"
	"accuracytrader/internal/topk"
)

// Posting is one (document, term frequency) pair in a postings list.
type Posting struct {
	Doc int32
	TF  int32
}

// TermFreq is one (term, frequency) pair of a document's term vector.
type TermFreq struct {
	Term int32
	Freq int32
}

// Index is an inverted index with Lucene-classic TF-IDF scoring:
//
//	score(q,d) = coord(q,d) * sum_t sqrt(tf(t,d)) * idf(t)^2 / sqrt(len(d))
//
// with idf(t) = 1 + ln(N/(df(t)+1)). The query norm is omitted as it is
// constant per query and does not affect ranking. Documents can be added,
// updated in place and deleted, supporting the synopsis updater's
// "changed web pages" scenario.
//
// Postings and per-document term vectors live in flat CSR backing arrays
// (internal/csr): one allocation for all terms instead of one slice per
// term, and scoring streams each postings list from contiguous memory.
type Index struct {
	vocab    map[string]int32
	terms    []string
	postings csr.Store[Posting]  // row per term, sorted by doc
	docTerms csr.Store[TermFreq] // row per doc, sorted by term
	docLen   []int
	alive    []bool
	live     int

	// scratch pools per-query scoring state (dense score/coord arrays and
	// the top-k selector) so concurrent Searches on a warm index allocate
	// nothing. Holds *searchScratch.
	scratch sync.Pool
}

// searchScratch is the reusable per-query scoring state: dense per-doc
// accumulators plus the list of touched docs (so clearing costs O(touched),
// not O(docs)).
type searchScratch struct {
	score []float64
	// coord is uint32, not uint16: a pathological query repeating one term
	// >65535 times must not wrap the count (it feeds both the coord factor
	// and the first-touch dedup of touched).
	coord   []uint32
	touched []int32
	sel     topk.Selector
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{vocab: make(map[string]int32)}
}

// NumDocs returns the number of live documents.
func (ix *Index) NumDocs() int { return ix.live }

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return len(ix.terms) }

// NumSlots returns the number of document slots ever allocated, including
// deleted documents (doc ids are never reused).
func (ix *Index) NumSlots() int { return len(ix.docLen) }

// Alive reports whether document d exists and is not deleted.
func (ix *Index) Alive(d int) bool { return d >= 0 && d < len(ix.alive) && ix.alive[d] }

// TermID returns the id of a term, if known.
func (ix *Index) TermID(term string) (int32, bool) {
	id, ok := ix.vocab[term]
	return id, ok
}

// termVec returns document d's term vector (aliases the backing array;
// valid until the next index mutation).
func (ix *Index) termVec(d int) []TermFreq { return ix.docTerms.Row(d) }

// Add indexes a document and returns its id.
func (ix *Index) Add(text string) int {
	doc := ix.docTerms.AddRow(nil)
	ix.docLen = append(ix.docLen, 0)
	ix.alive = append(ix.alive, true)
	ix.live++
	ix.setDoc(doc, text)
	return doc
}

// Update replaces document d's contents in place (a changed web page).
func (ix *Index) Update(d int, text string) {
	if !ix.Alive(d) {
		panic("textindex: Update of dead document")
	}
	ix.removePostings(d)
	ix.setDoc(d, text)
}

// Delete removes document d.
func (ix *Index) Delete(d int) {
	if !ix.Alive(d) {
		panic("textindex: Delete of dead document")
	}
	ix.removePostings(d)
	ix.docTerms.SetRow(d, nil)
	ix.docLen[d] = 0
	ix.alive[d] = false
	ix.live--
}

func (ix *Index) setDoc(d int, text string) {
	tokens := Tokenize(text)
	freqs := make(map[int32]int32)
	for _, tok := range tokens {
		id, ok := ix.vocab[tok]
		if !ok {
			id = int32(len(ix.terms))
			ix.vocab[tok] = id
			ix.terms = append(ix.terms, tok)
			ix.postings.AddRow(nil)
		}
		freqs[id]++
	}
	tv := make([]TermFreq, 0, len(freqs))
	for t, f := range freqs {
		tv = append(tv, TermFreq{Term: t, Freq: f})
	}
	slices.SortFunc(tv, func(a, b TermFreq) int { return int(a.Term) - int(b.Term) })
	ix.docTerms.SetRow(d, tv)
	ix.docLen[d] = len(tokens)
	for _, e := range tv {
		ix.insertPosting(e.Term, Posting{Doc: int32(d), TF: e.Freq})
	}
}

func (ix *Index) insertPosting(term int32, p Posting) {
	ps := ix.postings.Row(int(term))
	k := sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= p.Doc })
	ix.postings.InsertAt(int(term), k, p)
}

func (ix *Index) removePostings(d int) {
	for _, e := range ix.docTerms.Row(d) {
		ps := ix.postings.Row(int(e.Term))
		k := sort.Search(len(ps), func(i int) bool { return ps[i].Doc >= int32(d) })
		if k < len(ps) && ps[k].Doc == int32(d) {
			ix.postings.RemoveAt(int(e.Term), k)
		}
	}
}

// IDF returns the inverse document frequency of a term id, floored at 0:
// deleted-doc churn can push the raw value below zero (df+1 exceeding N),
// and a negative idf² would flip the ranking contribution of the rarest
// terms.
func (ix *Index) IDF(term int32) float64 {
	df := ix.postings.Len(int(term))
	idf := 1 + math.Log(float64(ix.live)/(float64(df)+1))
	if idf < 0 {
		return 0
	}
	return idf
}

// Query is an analyzed query: the known term ids of its tokens.
type Query struct {
	Terms []int32
	idf2  []float64
}

// ParseQuery analyzes raw query text against the index vocabulary;
// out-of-vocabulary tokens are dropped, duplicates kept (they boost the
// term like Lucene does). It is ParseQueryInto(Query{}, text): the
// query's two slices are its only allocations, each sized once.
func (ix *Index) ParseQuery(text string) Query {
	return ix.ParseQueryInto(Query{}, text)
}

// ParseQueryInto is ParseQuery writing the analyzed query into dst's
// storage (reused when its capacity allows; dst's contents are
// overwritten). It runs per sub-operation on the serve path, so it scans
// the text in place and collects the known term ids on the stack (a
// query with more than 16 of them spills to the heap) before sizing the
// query once: into storage that has held a query as long, it allocates
// nothing.
func (ix *Index) ParseQueryInto(dst Query, text string) Query {
	var inline [16]int32
	ids := inline[:0]
	s := tokenScanner{text: text}
	for tok, ok := s.next(); ok; tok, ok = s.next() {
		if id, known := ix.vocab[string(tok)]; known {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return Query{Terms: dst.Terms[:0], idf2: dst.idf2[:0]}
	}
	q := Query{Terms: append(dst.Terms[:0], ids...), idf2: dst.idf2[:0]}
	if cap(q.idf2) < len(ids) {
		q.idf2 = make([]float64, len(ids))
	}
	q.idf2 = q.idf2[:len(ids)]
	for i, id := range ids {
		idf := ix.IDF(id)
		q.idf2[i] = idf * idf
	}
	return q
}

// Hit is one retrieved document with its similarity score.
type Hit struct {
	Doc   int
	Score float64
}

// getScratch returns per-query scoring state sized for the index.
func (ix *Index) getScratch() *searchScratch {
	sc, _ := ix.scratch.Get().(*searchScratch)
	if sc == nil {
		sc = &searchScratch{}
	}
	if n := len(ix.docLen); len(sc.score) < n {
		sc.score = make([]float64, n)
		sc.coord = make([]uint32, n)
	}
	return sc
}

// Search scores all live documents against the query and returns the top
// k hits in descending score order (ties: ascending doc id) — the exact
// full computation the baselines perform. The result slice is freshly
// allocated; use SearchInto to reuse a caller buffer.
func (ix *Index) Search(q Query, k int) []Hit {
	return ix.SearchInto(nil, q, k)
}

// SearchInto is Search writing the hits into dst (reused when capacity
// allows, truncated first).
func (ix *Index) SearchInto(dst []Hit, q Query, k int) []Hit {
	dst = dst[:0]
	sc := ix.topK(q, k)
	if sc == nil {
		return dst
	}
	selected := sc.sel.Sorted()
	dst = slices.Grow(dst, len(selected))
	for _, it := range selected {
		dst = append(dst, Hit{Doc: it.ID, Score: it.Score})
	}
	ix.scratch.Put(sc)
	return dst
}

// SearchEach is Search handing each of the top k hits to emit, best
// first, straight from the pooled selector: a caller that keeps hits in
// a form of its own (a wire reply) builds no intermediate hit list.
func (ix *Index) SearchEach(q Query, k int, emit func(doc int, score float64)) {
	sc := ix.topK(q, k)
	if sc == nil {
		return
	}
	for _, it := range sc.sel.Sorted() {
		emit(it.ID, it.Score)
	}
	ix.scratch.Put(sc)
}

// topK runs the exact search into pooled scratch whose selector then
// holds the top k, for the caller to read out and hand back to
// ix.scratch; nil when nothing can match.
func (ix *Index) topK(q Query, k int) *searchScratch {
	if k <= 0 || len(q.Terms) == 0 {
		return nil
	}
	sc := ix.getScratch()
	// Accumulate term contributions into the dense arrays. Accumulation
	// order matches the per-doc order of the reference kernel (query terms
	// outer, postings inner), so scores are bit-identical to it.
	for qi, t := range q.Terms {
		w := q.idf2[qi]
		for _, p := range ix.postings.Row(int(t)) {
			if sc.coord[p.Doc] == 0 {
				sc.touched = append(sc.touched, p.Doc)
			}
			sc.score[p.Doc] += math.Sqrt(float64(p.TF)) * w
			sc.coord[p.Doc]++
		}
	}
	// Select top-k over touched docs, clearing the accumulators as we go.
	sel := &sc.sel
	sel.Reset(k)
	qLen := len(q.Terms)
	for _, d := range sc.touched {
		sum, matched := sc.score[d], int(sc.coord[d])
		sc.score[d], sc.coord[d] = 0, 0
		if !ix.alive[d] {
			continue
		}
		sel.Offer(int(d), ix.finalScore(sum, matched, qLen, ix.docLen[d]))
	}
	sc.touched = sc.touched[:0]
	return sc
}

// ScoreDoc scores a single live document against the query (0 when no
// term matches).
func (ix *Index) ScoreDoc(q Query, d int) float64 {
	if !ix.Alive(d) {
		return 0
	}
	tv := ix.docTerms.Row(d)
	sum := 0.0
	matched := 0
	for qi, t := range q.Terms {
		k := sort.Search(len(tv), func(i int) bool { return tv[i].Term >= t })
		if k < len(tv) && tv[k].Term == t {
			sum += math.Sqrt(float64(tv[k].Freq)) * q.idf2[qi]
			matched++
		}
	}
	return ix.finalScore(sum, matched, len(q.Terms), ix.docLen[d])
}

// finalScore applies the coord factor and the length norm.
func (ix *Index) finalScore(sum float64, matched, qLen, docLen int) float64 {
	if sum == 0 || qLen == 0 || docLen == 0 {
		return 0
	}
	coord := float64(matched) / float64(qLen)
	return coord * sum / math.Sqrt(float64(docLen))
}

// FeatureSource adapts the index to synopsis building: each document is a
// data point whose sparse features are term occurrence counts (paper
// §2.2 step 1, text datasets).
type FeatureSource struct{ Ix *Index }

// NumPoints returns the number of documents ever added (dead ones keep
// their slot with an empty feature vector).
func (f FeatureSource) NumPoints() int { return f.Ix.NumSlots() }

// NumFeatures returns the vocabulary size.
func (f FeatureSource) NumFeatures() int { return f.Ix.NumTerms() }

// Features returns document i's term counts as SVD cells.
func (f FeatureSource) Features(i int) []svd.Cell {
	tv := f.Ix.termVec(i)
	cells := make([]svd.Cell, len(tv))
	for k, e := range tv {
		cells[k] = svd.Cell{Col: e.Term, Val: float64(e.Freq)}
	}
	return cells
}
