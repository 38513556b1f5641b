package textindex

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"accuracytrader/internal/stats"
	"accuracytrader/internal/svd"
	"accuracytrader/internal/synopsis"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("The Quick-Brown FOX, and 42 foxes! a I")
	want := []string{"quick", "brown", "fox", "42", "foxes"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", got, want)
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize("  ... !!"); len(got) != 0 {
		t.Fatalf("tokens = %v", got)
	}
}

func buildSmallIndex() *Index {
	ix := NewIndex()
	ix.Add("go concurrency channels goroutines select")  // 0
	ix.Add("go garbage collector performance tuning")    // 1
	ix.Add("database transactions isolation levels")     // 2
	ix.Add("go channels channels channels buffering")    // 3
	ix.Add("distributed database replication consensus") // 4
	return ix
}

func TestIndexBasics(t *testing.T) {
	ix := buildSmallIndex()
	if ix.NumDocs() != 5 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if ix.docLen[0] != 5 {
		t.Fatalf("DocLen = %d", ix.docLen[0])
	}
	if _, ok := ix.TermID("channels"); !ok {
		t.Fatal("vocab missing term")
	}
	if _, ok := ix.TermID("nonexistent"); ok {
		t.Fatal("phantom term")
	}
}

func TestSearchRanking(t *testing.T) {
	ix := buildSmallIndex()
	q := ix.ParseQuery("go channels")
	hits := ix.Search(q, 10)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	// Doc 3 (channels x3 + go) and doc 0 (channels + go) must beat doc 1
	// (only "go").
	pos := map[int]int{}
	for i, h := range hits {
		pos[h.Doc] = i
	}
	if pos[3] > pos[1] || pos[0] > pos[1] {
		t.Fatalf("ranking wrong: %v", hits)
	}
	// Scores strictly descending or tie-broken by doc.
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatalf("hits not sorted: %v", hits)
		}
	}
}

func TestSearchTopKCut(t *testing.T) {
	ix := buildSmallIndex()
	q := ix.ParseQuery("go database channels")
	hits := ix.Search(q, 2)
	if len(hits) != 2 {
		t.Fatalf("k not honored: %v", hits)
	}
}

func TestSearchUnknownTerms(t *testing.T) {
	ix := buildSmallIndex()
	q := ix.ParseQuery("zzz qqq")
	if len(q.Terms) != 0 {
		t.Fatal("OOV terms kept")
	}
	if hits := ix.Search(q, 5); len(hits) != 0 {
		t.Fatalf("hits for empty query: %v", hits)
	}
}

func TestScoreDocMatchesSearch(t *testing.T) {
	ix := buildSmallIndex()
	q := ix.ParseQuery("go channels performance")
	hits := ix.Search(q, 10)
	for _, h := range hits {
		if s := ix.ScoreDoc(q, h.Doc); math.Abs(s-h.Score) > 1e-12 {
			t.Fatalf("doc %d: ScoreDoc %v vs Search %v", h.Doc, s, h.Score)
		}
	}
	if s := ix.ScoreDoc(q, 2); s != 0 {
		t.Fatalf("non-matching doc scored %v", s)
	}
}

func TestIDFRareBeatsCommon(t *testing.T) {
	ix := buildSmallIndex()
	goID, _ := ix.TermID("go")
	consID, _ := ix.TermID("consensus")
	if ix.IDF(consID) <= ix.IDF(goID) {
		t.Fatalf("idf(rare)=%v <= idf(common)=%v", ix.IDF(consID), ix.IDF(goID))
	}
}

func TestUpdateChangesSearch(t *testing.T) {
	ix := buildSmallIndex()
	q := ix.ParseQuery("consensus")
	before := ix.Search(q, 10)
	if len(before) != 1 || before[0].Doc != 4 {
		t.Fatalf("before = %v", before)
	}
	ix.Update(2, "consensus protocols paxos raft consensus")
	after := ix.Search(q, 10)
	if len(after) != 2 {
		t.Fatalf("after = %v", after)
	}
	// Doc 2 now mentions consensus twice in 5 tokens; should rank first.
	if after[0].Doc != 2 {
		t.Fatalf("updated doc not ranked first: %v", after)
	}
}

func TestDeleteRemovesFromSearch(t *testing.T) {
	ix := buildSmallIndex()
	ix.Delete(3)
	if ix.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	q := ix.ParseQuery("channels")
	for _, h := range ix.Search(q, 10) {
		if h.Doc == 3 {
			t.Fatal("deleted doc still retrieved")
		}
	}
	if ix.Alive(3) {
		t.Fatal("doc 3 should be dead")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double delete should panic")
		}
	}()
	ix.Delete(3)
}

func TestFeatureSource(t *testing.T) {
	ix := NewIndex()
	ix.Add("alpha beta alpha")
	fs := FeatureSource{Ix: ix}
	if fs.NumPoints() != 1 || fs.NumFeatures() != 2 {
		t.Fatalf("shape = %d,%d", fs.NumPoints(), fs.NumFeatures())
	}
	cells := fs.Features(0)
	if len(cells) != 2 {
		t.Fatalf("cells = %v", cells)
	}
	var alphaCount float64
	alphaID, _ := ix.TermID("alpha")
	for _, c := range cells {
		if c.Col == alphaID {
			alphaCount = c.Val
		}
	}
	if alphaCount != 2 {
		t.Fatalf("alpha count = %v", alphaCount)
	}
}

func TestAggregatePageMerges(t *testing.T) {
	ix := NewIndex()
	ix.Add("alpha beta")
	ix.Add("alpha gamma gamma")
	ap := ix.aggregate(synopsis.Group{ID: 3, Members: []int{0, 1}})
	if ap.GroupID != 3 || ap.Len != 5 {
		t.Fatalf("ap = %+v", ap)
	}
	want := map[string]int32{"alpha": 2, "beta": 1, "gamma": 2}
	for _, e := range ap.Terms {
		if want[ix.terms[e.Term]] != e.Freq {
			t.Fatalf("term %q freq %d", ix.terms[e.Term], e.Freq)
		}
	}
}

func TestAggregatedPageScoreSingletonEqualsDoc(t *testing.T) {
	ix := buildSmallIndex()
	q := ix.ParseQuery("go channels")
	ap := ix.aggregate(synopsis.Group{ID: 0, Members: []int{3}})
	if d := math.Abs(ap.Score(ix, q) - ix.ScoreDoc(q, 3)); d > 1e-12 {
		t.Fatalf("singleton aggregate score differs by %v", d)
	}
}

// topicCorpus builds a corpus of nDocs documents over nTopics topics, each
// topic with its own characteristic vocabulary plus shared background
// words.
func topicCorpus(rng *stats.RNG, nDocs, nTopics int) ([]string, []int) {
	docs := make([]string, nDocs)
	topics := make([]int, nDocs)
	for d := 0; d < nDocs; d++ {
		topic := d % nTopics
		topics[d] = topic
		var sb strings.Builder
		for w := 0; w < 30; w++ {
			if rng.Float64() < 0.7 {
				fmt.Fprintf(&sb, "topic%dword%d ", topic, rng.Intn(25))
			} else {
				fmt.Fprintf(&sb, "common%d ", rng.Intn(40))
			}
		}
		docs[d] = sb.String()
	}
	return docs, topics
}

func buildTopicComponent(t *testing.T, rng *stats.RNG, nDocs int) (*Component, []int) {
	t.Helper()
	docs, topics := topicCorpus(rng, nDocs, 4)
	ix := NewIndex()
	for _, d := range docs {
		ix.Add(d)
	}
	c, err := BuildComponent(ix, synopsis.Config{
		SVD:              svd.Config{Dims: 3, Epochs: 10, Seed: 9},
		CompressionRatio: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, topics
}

func TestEngineConvergesToExact(t *testing.T) {
	rng := stats.NewRNG(1)
	c, _ := buildTopicComponent(t, rng, 300)
	q := c.Ix.ParseQuery("topic1word3 topic1word7 common5")
	e := NewEngine(c, q)
	e.ProcessSynopsis()
	for g := range c.Aggs {
		e.ProcessSet(g)
	}
	got := e.TopK(10)
	want := ExactTopK(c, q, 10)
	if len(got) != len(want) {
		t.Fatalf("lengths %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("hit %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestEngineSynopsisOnlyBeatsRandom(t *testing.T) {
	rng := stats.NewRNG(2)
	c, _ := buildTopicComponent(t, rng, 400)
	var synOverlap, randOverlap stats.Summary
	for trial := 0; trial < 20; trial++ {
		topic := trial % 4
		q := c.Ix.ParseQuery(fmt.Sprintf("topic%dword%d topic%dword%d", topic, rng.Intn(25), topic, rng.Intn(25)))
		if len(q.Terms) == 0 {
			continue
		}
		exact := ExactTopK(c, q, 10)
		if len(exact) == 0 {
			continue
		}
		e := NewEngine(c, q)
		e.ProcessSynopsis()
		synOverlap.Add(TopKOverlap(exact, e.TopK(10)))
		// Random baseline: first 10 doc ids.
		var random []Hit
		for d := 0; d < 10; d++ {
			random = append(random, Hit{Doc: d})
		}
		randOverlap.Add(TopKOverlap(exact, random))
	}
	if synOverlap.Mean() <= randOverlap.Mean() {
		t.Fatalf("synopsis-only overlap %v not above random %v", synOverlap.Mean(), randOverlap.Mean())
	}
}

func TestEngineProcessSetIdempotent(t *testing.T) {
	rng := stats.NewRNG(3)
	c, _ := buildTopicComponent(t, rng, 200)
	q := c.Ix.ParseQuery("topic0word1 topic0word2")
	e := NewEngine(c, q)
	e.ProcessSynopsis()
	e.ProcessSet(0)
	n := len(e.scored)
	e.ProcessSet(0)
	if len(e.scored) != n {
		t.Fatal("double ProcessSet duplicated hits")
	}
}

func TestComponentApplyChanges(t *testing.T) {
	rng := stats.NewRNG(4)
	c, _ := buildTopicComponent(t, rng, 300)
	newDoc := c.Ix.Add("topic0word1 topic0word2 freshpage")
	st, err := c.ApplyChanges([]synopsis.Change{{
		Kind:  synopsis.Add,
		Cells: FeatureSource{Ix: c.Ix}.Features(newDoc),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupsKept == 0 {
		t.Fatal("no aggregates survived a single add")
	}
	// The new page must be in exactly one group.
	n := 0
	for _, ap := range c.Aggs {
		for _, d := range ap.Members {
			if d == newDoc {
				n++
			}
		}
	}
	if n != 1 {
		t.Fatalf("new doc in %d groups", n)
	}
}

func TestTopKOverlap(t *testing.T) {
	actual := []Hit{{Doc: 1}, {Doc: 2}, {Doc: 3}, {Doc: 4}}
	retrieved := []Hit{{Doc: 2}, {Doc: 4}, {Doc: 9}}
	if got := TopKOverlap(actual, retrieved); got != 0.5 {
		t.Fatalf("overlap = %v", got)
	}
	if TopKOverlap(nil, retrieved) != 1 {
		t.Fatal("empty actual should be 1")
	}
}

func TestMergeTopK(t *testing.T) {
	a := []Hit{{Doc: 1, Score: 5}, {Doc: 2, Score: 1}}
	b := []Hit{{Doc: 3, Score: 3}}
	got := MergeTopK([][]Hit{a, b}, 2)
	if len(got) != 2 || got[0].Doc != 1 || got[1].Doc != 3 {
		t.Fatalf("merged = %v", got)
	}
}

func TestParseQueryDuplicateTermsBoost(t *testing.T) {
	ix := buildSmallIndex()
	single := ix.ParseQuery("channels")
	double := ix.ParseQuery("channels channels")
	if len(double.Terms) != 2 {
		t.Fatalf("duplicate terms dropped: %v", double.Terms)
	}
	s1 := ix.ScoreDoc(single, 3)
	s2 := ix.ScoreDoc(double, 3)
	if s2 <= s1 {
		t.Fatalf("duplicate query term did not boost: %v vs %v", s2, s1)
	}
}

func TestUpdateIsIdempotentForSameText(t *testing.T) {
	ix := buildSmallIndex()
	q := ix.ParseQuery("go channels")
	before := ix.Search(q, 10)
	ix.Update(0, "go concurrency channels goroutines select")
	after := ix.Search(ix.ParseQuery("go channels"), 10)
	if len(before) != len(after) {
		t.Fatalf("hit count changed: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i].Doc != after[i].Doc {
			t.Fatalf("ranking changed at %d", i)
		}
	}
}

func TestUpdateToEmptyText(t *testing.T) {
	ix := buildSmallIndex()
	ix.Update(3, "")
	if ix.docLen[3] != 0 {
		t.Fatalf("doc len = %d", ix.docLen[3])
	}
	q := ix.ParseQuery("channels")
	for _, h := range ix.Search(q, 10) {
		if h.Doc == 3 {
			t.Fatal("emptied doc still matches")
		}
	}
	// The doc remains alive and can be refilled.
	if !ix.Alive(3) {
		t.Fatal("emptied doc died")
	}
	ix.Update(3, "channels again")
	found := false
	for _, h := range ix.Search(ix.ParseQuery("channels"), 10) {
		if h.Doc == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("refilled doc not found")
	}
}

func TestUpdateDeadDocPanics(t *testing.T) {
	ix := buildSmallIndex()
	ix.Delete(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.Update(2, "zombie")
}

func TestScoreDocDeadIsZero(t *testing.T) {
	ix := buildSmallIndex()
	q := ix.ParseQuery("channels")
	ix.Delete(3)
	if s := ix.ScoreDoc(q, 3); s != 0 {
		t.Fatalf("dead doc scored %v", s)
	}
	if s := ix.ScoreDoc(q, 999); s != 0 {
		t.Fatalf("absent doc scored %v", s)
	}
}

func TestMergedPageOutranksWeakPages(t *testing.T) {
	// An aggregated page merging several strong pages should outrank an
	// aggregated page merging unrelated ones for the topic query.
	ix := NewIndex()
	ix.Add("kernel scheduler preemption kernel")
	ix.Add("kernel interrupts kernel locks")
	ix.Add("gardening flowers seeds")
	ix.Add("cooking pasta sauce")
	q := ix.ParseQuery("kernel")
	strong := ix.aggregate(synopsis.Group{ID: 0, Members: []int{0, 1}})
	weak := ix.aggregate(synopsis.Group{ID: 1, Members: []int{2, 3}})
	if strong.Score(ix, q) <= weak.Score(ix, q) {
		t.Fatal("merged strong page does not outrank weak page")
	}
}

func TestEngineTopKFillerOrdering(t *testing.T) {
	rng := stats.NewRNG(40)
	c, _ := buildTopicComponent(t, rng, 200)
	q := c.Ix.ParseQuery("topic2word1 topic2word2")
	if len(q.Terms) == 0 {
		t.Skip("query terms OOV")
	}
	e := NewEngine(c, q)
	corr := e.ProcessSynopsis()
	hits := e.TopK(10)
	if len(hits) == 0 {
		t.Fatal("no filler hits")
	}
	// Filler hits must be ordered by non-increasing aggregated score.
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatalf("filler not ordered: %v", hits)
		}
	}
	// The top filler page must come from the best-ranked group.
	best := 0
	for g := range corr {
		if corr[g] > corr[best] {
			best = g
		}
	}
	inBest := map[int]bool{}
	for _, d := range c.Aggs[best].Members {
		inBest[d] = true
	}
	if !inBest[hits[0].Doc] {
		t.Fatal("top filler page not from the best group")
	}
}
