package textindex

// Reference (naive) implementations of the optimized scoring kernels,
// retained as test-only helpers: the property tests below assert the
// optimized kernels are result-identical on randomized inputs, so the
// fast paths can never silently diverge from the simple semantics.

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"accuracytrader/internal/stats"
)

// naiveSearch is the pre-optimization Search: map accumulators, full
// sort, truncate.
func naiveSearch(ix *Index, q Query, k int) []Hit {
	scores := make(map[int32]float64)
	matched := make(map[int32]int)
	for qi, t := range q.Terms {
		for _, p := range ix.postings.Row(int(t)) {
			scores[p.Doc] += math.Sqrt(float64(p.TF)) * q.idf2[qi]
			matched[p.Doc]++
		}
	}
	hits := make([]Hit, 0, len(scores))
	for doc, s := range scores {
		if !ix.alive[doc] {
			continue
		}
		hits = append(hits, Hit{Doc: int(doc), Score: ix.finalScore(s, matched[doc], len(q.Terms), ix.docLen[doc])})
	}
	naiveSortHits(hits)
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// naiveSortHits is the pre-optimization sort.Slice ordering.
func naiveSortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc < hits[j].Doc
	})
}

// randomDoc emits a small random document over a shared vocabulary, so
// postings lists overlap heavily.
func randomDoc(rng *stats.RNG) string {
	n := 3 + rng.Intn(25)
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, fmt.Sprintf("word%d ", rng.Intn(60))...)
	}
	return string(b)
}

func randomQueryText(rng *stats.RNG) string {
	n := 1 + rng.Intn(5)
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, fmt.Sprintf("word%d ", rng.Intn(60))...)
	}
	return string(b)
}

func assertHitsBitEqual(t *testing.T, got, want []Hit, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d\n got: %v\nwant: %v", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
			t.Fatalf("%s: hit %d differs\n got: %+v\nwant: %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestSearchMatchesNaiveReference checks hits are bit-equal (docs, order
// and scores) between the optimized Search and the naive reference on
// randomized corpora and queries, across several seeds.
func TestSearchMatchesNaiveReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		ix := NewIndex()
		nDocs := 30 + rng.Intn(120)
		for d := 0; d < nDocs; d++ {
			ix.Add(randomDoc(rng))
		}
		for trial := 0; trial < 40; trial++ {
			q := ix.ParseQuery(randomQueryText(rng))
			k := 1 + rng.Intn(15)
			assertHitsBitEqual(t, ix.Search(q, k), naiveSearch(ix, q, k),
				fmt.Sprintf("seed %d trial %d k %d", seed, trial, k))
		}
	}
}

// TestSearchMatchesNaiveAfterChurn drives the index through
// update/delete churn between comparisons, exercising the CSR stores'
// in-place removals and relocations.
func TestSearchMatchesNaiveAfterChurn(t *testing.T) {
	rng := stats.NewRNG(99)
	ix := NewIndex()
	for d := 0; d < 80; d++ {
		ix.Add(randomDoc(rng))
	}
	for round := 0; round < 30; round++ {
		switch rng.Intn(3) {
		case 0:
			ix.Add(randomDoc(rng))
		case 1:
			d := rng.Intn(ix.NumSlots())
			if ix.Alive(d) {
				ix.Update(d, randomDoc(rng))
			}
		case 2:
			d := rng.Intn(ix.NumSlots())
			if ix.Alive(d) && ix.NumDocs() > 5 {
				ix.Delete(d)
			}
		}
		q := ix.ParseQuery(randomQueryText(rng))
		assertHitsBitEqual(t, ix.Search(q, 10), naiveSearch(ix, q, 10),
			fmt.Sprintf("churn round %d", round))
	}
}

// TestSearchConcurrentMatchesNaive exercises the scratch pool under
// concurrent readers: every goroutine must see results identical to the
// naive reference.
func TestSearchConcurrentMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(7)
	ix := NewIndex()
	for d := 0; d < 100; d++ {
		ix.Add(randomDoc(rng))
	}
	type qk struct {
		q    Query
		want []Hit
	}
	cases := make([]qk, 16)
	for i := range cases {
		q := ix.ParseQuery(randomQueryText(rng))
		cases[i] = qk{q: q, want: naiveSearch(ix, q, 10)}
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for rep := 0; rep < 50; rep++ {
				c := cases[(g+rep)%len(cases)]
				got := ix.Search(c.q, 10)
				if len(got) != len(c.want) {
					done <- fmt.Errorf("goroutine %d: %d hits, want %d", g, len(got), len(c.want))
					return
				}
				for i := range c.want {
					if got[i] != c.want[i] {
						done <- fmt.Errorf("goroutine %d: hit %d = %+v, want %+v", g, i, got[i], c.want[i])
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSearchIntoReusesBuffer checks the caller-buffer variant returns the
// same hits while reusing capacity.
func TestSearchIntoReusesBuffer(t *testing.T) {
	ix := buildSmallIndex()
	q := ix.ParseQuery("go channels")
	want := ix.Search(q, 10)
	buf := make([]Hit, 0, 32)
	got := ix.SearchInto(buf, q, 10)
	assertHitsBitEqual(t, got, want, "SearchInto")
	if cap(got) != cap(buf) {
		t.Fatalf("buffer not reused: cap %d, want %d", cap(got), cap(buf))
	}
}

// TestIDFNeverNegative is the regression test for the IDF guard:
// deleted-doc churn (here: deleting every document) used to push
// 1+ln(N/(df+1)) to -Inf, and a negative idf² would flip ranking order.
func TestIDFNeverNegative(t *testing.T) {
	ix := NewIndex()
	ix.Add("alpha beta gamma")
	ix.Add("alpha beta")
	ix.Add("alpha")
	for term := int32(0); term < int32(ix.NumTerms()); term++ {
		if idf := ix.IDF(term); idf < 0 || math.IsNaN(idf) {
			t.Fatalf("term %d: idf = %v before churn", term, idf)
		}
	}
	ix.Delete(0)
	ix.Delete(1)
	ix.Delete(2)
	for term := int32(0); term < int32(ix.NumTerms()); term++ {
		if idf := ix.IDF(term); idf < 0 || math.IsNaN(idf) {
			t.Fatalf("term %d: idf = %v after deleting all docs", term, idf)
		}
	}
	// Queries against the emptied index stay well-formed (idf² ≥ 0).
	q := ix.ParseQuery("alpha beta")
	for i, w := range q.idf2 {
		if w < 0 || math.IsNaN(w) {
			t.Fatalf("idf2[%d] = %v", i, w)
		}
	}
	if hits := ix.Search(q, 5); len(hits) != 0 {
		t.Fatalf("hits on empty index: %v", hits)
	}
}

// TestEngineResetReuseMatchesFresh checks a pooled/reset engine produces
// the same results as a freshly allocated one across differing queries
// and components.
func TestEngineResetReuseMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(12)
	c, _ := buildTopicComponent(t, rng, 250)
	reused := GetEngine(c, Query{})
	defer reused.Release()
	var buf Query
	for trial := 0; trial < 15; trial++ {
		text := fmt.Sprintf("topic%dword%d common%d", trial%4, rng.Intn(25), rng.Intn(40))
		fresh := NewEngine(c, c.Ix.ParseQuery(text))
		buf = c.Ix.ParseQueryInto(buf, text)
		reused.Reset(c, buf)
		// The engine keeps its own copy: the caller's storage is free for
		// the next parse at once.
		buf = c.Ix.ParseQueryInto(buf, "common1 common2 common3")
		corrF := fresh.ProcessSynopsis()
		corrR := reused.ProcessSynopsis()
		if len(corrF) != len(corrR) {
			t.Fatalf("trial %d: corr lengths differ", trial)
		}
		for g := range corrF {
			if corrF[g] != corrR[g] {
				t.Fatalf("trial %d: corr[%d] %v vs %v", trial, g, corrR[g], corrF[g])
			}
		}
		for g := 0; g < len(corrF); g += 2 {
			fresh.ProcessSet(g)
			reused.ProcessSet(g)
		}
		assertHitsBitEqual(t, reused.TopK(10), fresh.TopK(10), fmt.Sprintf("trial %d", trial))
	}
}

// naiveTokenize is the pre-scanner Tokenize, verbatim: a rune walk
// through a strings.Builder per token.
func naiveTokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 1 {
			tok := b.String()
			if !stopwords[tok] {
				tokens = append(tokens, tok)
			}
		}
		b.Reset()
	}
	for _, r := range text {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// naiveParseQuery is the pre-scanner ParseQuery: tokenize, then look
// each token up.
func naiveParseQuery(ix *Index, text string) Query {
	var q Query
	for _, tok := range naiveTokenize(text) {
		if id, ok := ix.vocab[tok]; ok {
			q.Terms = append(q.Terms, id)
			idf := ix.IDF(id)
			q.idf2 = append(q.idf2, idf*idf)
		}
	}
	return q
}

// randomText draws text that exercises every branch of the scanner:
// known and unknown words, stopwords, single characters, mixed case,
// multi-byte and invalid UTF-8 separators, and tokens longer than the
// scanner's inline buffer.
func randomText(rng *stats.RNG) string {
	pieces := []string{"the", "a", "x", "Word", "WORD7", "and", "é", "中文", "🎉", "\xff", "\xc3", "-", "  ", "\n", "zzzunknown", "42"}
	var b []byte
	for i := rng.Intn(12); i > 0; i-- {
		switch rng.Intn(4) {
		case 0:
			b = append(b, fmt.Sprintf("word%d", rng.Intn(60))...)
		case 1:
			for j := 1 + rng.Intn(150); j > 0; j-- { // up to 150 > the 64-byte buffer
				b = append(b, "abcXYZ019"[rng.Intn(9)])
			}
		default:
			b = append(b, pieces[rng.Intn(len(pieces))]...)
		}
		if rng.Intn(3) > 0 {
			b = append(b, " ,;é\xfe"[rng.Intn(6)])
		}
	}
	return string(b)
}

// TestAnalysisMatchesNaiveReference holds the one scanner to the old
// analyzer: Tokenize returns the same tokens, and ParseQuery the same
// Terms and bit-equal idf² weights (nil for a query with no known term),
// on random ASCII, UTF-8, invalid-UTF-8 and over-long-token input.
func TestAnalysisMatchesNaiveReference(t *testing.T) {
	rng := stats.NewRNG(77)
	ix := NewIndex()
	for i := 0; i < 200; i++ {
		ix.Add(randomDoc(rng))
	}
	long := strings.Repeat("q", 100)
	ix.Add(long + " " + long + "r")
	for i := 0; i < 3000; i++ {
		text := randomText(rng)
		if i%50 == 0 {
			text += " " + long
		}
		if got, want := Tokenize(text), naiveTokenize(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, got, want)
		}
		got, want := ix.ParseQuery(text), naiveParseQuery(ix, text)
		if !reflect.DeepEqual(got.Terms, want.Terms) {
			t.Fatalf("ParseQuery(%q).Terms = %v, reference %v", text, got.Terms, want.Terms)
		}
		if (got.idf2 == nil) != (want.idf2 == nil) || len(got.idf2) != len(want.idf2) {
			t.Fatalf("ParseQuery(%q).idf2 = %v, reference %v", text, got.idf2, want.idf2)
		}
		for j := range got.idf2 {
			if math.Float64bits(got.idf2[j]) != math.Float64bits(want.idf2[j]) {
				t.Fatalf("ParseQuery(%q).idf2[%d] = %v, reference %v", text, j, got.idf2[j], want.idf2[j])
			}
		}
	}
}

// TestParseQueryAllocations pins the serve path's share of query
// analysis: the query's two slices and nothing per token — none at all
// when no token is known.
func TestParseQueryAllocations(t *testing.T) {
	rng := stats.NewRNG(78)
	ix := NewIndex()
	for i := 0; i < 50; i++ {
		ix.Add(randomDoc(rng))
	}
	var sink Query
	if n := testing.AllocsPerRun(100, func() { sink = ix.ParseQuery("The word3, WORD17 and word3 of zzzunknown word59") }); n != 2 {
		t.Errorf("ParseQuery allocates %.0f times, want 2 (Terms, idf2)", n)
	}
	if len(sink.Terms) != 4 {
		t.Fatalf("parsed %d terms, want 4", len(sink.Terms))
	}
	if n := testing.AllocsPerRun(100, func() { sink = ix.ParseQuery("the zzzunknown of it") }); n != 0 {
		t.Errorf("ParseQuery with no known term allocates %.0f times, want 0", n)
	}
	// Into storage that has held a query as long: nothing, and the query
	// ParseQuery returns.
	text := "The word3, WORD17 and word3 of zzzunknown word59"
	dst := ix.ParseQuery("word1 word2 word3 word4")
	if n := testing.AllocsPerRun(100, func() { dst = ix.ParseQueryInto(dst, text) }); n != 0 {
		t.Errorf("ParseQueryInto reused storage allocates %.0f times, want 0", n)
	}
	if want := ix.ParseQuery(text); !reflect.DeepEqual(dst, want) {
		t.Fatalf("ParseQueryInto = %+v, ParseQuery = %+v", dst, want)
	}
}

// TestSearchEachDoesNotAllocate: SearchEach hands out exactly Search's
// hits, best first, from pooled scratch — with a warm pool, nothing.
func TestSearchEachDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops at random)")
	}
	rng := stats.NewRNG(79)
	ix := NewIndex()
	for i := 0; i < 80; i++ {
		ix.Add(randomDoc(rng))
	}
	var got []Hit
	collect := func(doc int, score float64) { got = append(got, Hit{Doc: doc, Score: score}) }
	for i := 0; i < 20; i++ {
		q := ix.ParseQuery(randomQueryText(rng))
		got = got[:0]
		ix.SearchEach(q, 7, collect)
		assertHitsBitEqual(t, got, naiveSearch(ix, q, 7), fmt.Sprintf("query %d", i))
	}
	q := ix.ParseQuery("word3 word17 word59")
	var sum float64
	if n := testing.AllocsPerRun(100, func() {
		ix.SearchEach(q, 10, func(_ int, score float64) { sum += score })
	}); n != 0 {
		t.Errorf("SearchEach allocates %.0f times, want 0", n)
	}
}
