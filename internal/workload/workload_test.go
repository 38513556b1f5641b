package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"accuracytrader/internal/cf"
	"accuracytrader/internal/stats"
)

func TestGenerateRatingsShape(t *testing.T) {
	cfg := DefaultRatingsConfig()
	cfg.UsersPerSubset = 100
	cfg.Seed = 1
	d := GenerateRatings(cfg, 3)
	if len(d.Subsets) != 3 || len(d.Clusters) != 3 {
		t.Fatalf("subsets = %d", len(d.Subsets))
	}
	for s, m := range d.Subsets {
		if m.NumUsers() != 100 {
			t.Fatalf("subset %d users = %d", s, m.NumUsers())
		}
		if m.NumItems() != cfg.Items {
			t.Fatalf("subset %d items = %d", s, m.NumItems())
		}
		for u := 0; u < m.NumUsers(); u++ {
			for _, r := range m.Ratings(u) {
				if r.Score < 1 || r.Score > 5 {
					t.Fatalf("score %v out of 1..5", r.Score)
				}
			}
		}
	}
}

func TestRatingsClusterStructure(t *testing.T) {
	// Same-cluster users must have higher Pearson weights than
	// cross-cluster users; this is the structure CF and the synopsis need.
	cfg := DefaultRatingsConfig()
	cfg.UsersPerSubset = 150
	cfg.Density = 0.3
	cfg.Seed = 2
	d := GenerateRatings(cfg, 1)
	m := d.Subsets[0]
	cl := d.Clusters[0]
	var same, diff stats.Summary
	for a := 0; a < 60; a++ {
		for b := a + 1; b < 60; b++ {
			w := cf.Weight(m.Ratings(a), m.Ratings(b))
			if cl[a] == cl[b] {
				same.Add(w)
			} else {
				diff.Add(w)
			}
		}
	}
	if same.Mean() < diff.Mean()+0.3 {
		t.Fatalf("cluster weights not separated: same=%v diff=%v", same.Mean(), diff.Mean())
	}
}

func TestGenerateRatingsDeterministic(t *testing.T) {
	cfg := DefaultRatingsConfig()
	cfg.UsersPerSubset = 50
	cfg.Seed = 3
	a := GenerateRatings(cfg, 1)
	b := GenerateRatings(cfg, 1)
	for u := 0; u < 50; u++ {
		ra, rb := a.Subsets[0].Ratings(u), b.Subsets[0].Ratings(u)
		if len(ra) != len(rb) {
			t.Fatal("not deterministic")
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatal("not deterministic")
			}
		}
	}
}

func TestSampleCFRequests(t *testing.T) {
	cfg := DefaultRatingsConfig()
	cfg.UsersPerSubset = 50
	cfg.Seed = 4
	d := GenerateRatings(cfg, 1)
	reqs := d.SampleCFRequests(7, 50, 0.2)
	if len(reqs) < 45 {
		t.Fatalf("only %d requests sampled", len(reqs))
	}
	for _, r := range reqs {
		if len(r.Known) < 2 {
			t.Fatalf("too few known ratings: %d", len(r.Known))
		}
		if len(r.Targets) == 0 || len(r.Targets) != len(r.Truth) {
			t.Fatalf("targets/truth mismatch: %d/%d", len(r.Targets), len(r.Truth))
		}
		// Targets must not appear in known.
		known := map[int32]bool{}
		for _, k := range r.Known {
			known[k.Item] = true
		}
		for _, tg := range r.Targets {
			if known[tg] {
				t.Fatal("target leaked into known ratings")
			}
		}
		for _, tv := range r.Truth {
			if tv < 1 || tv > 5 {
				t.Fatalf("truth %v out of range", tv)
			}
		}
	}
}

func TestGenerateCorpusShape(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.DocsPerSubset = 80
	cfg.Seed = 5
	d := GenerateCorpus(cfg, 2)
	if len(d.Subsets) != 2 {
		t.Fatalf("subsets = %d", len(d.Subsets))
	}
	for s, ix := range d.Subsets {
		if ix.NumDocs() != 80 {
			t.Fatalf("subset %d docs = %d", s, ix.NumDocs())
		}
		if ix.NumTerms() < cfg.Topics {
			t.Fatalf("vocab too small: %d", ix.NumTerms())
		}
	}
}

func TestCorpusQueriesRetrieveOwnTopic(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.DocsPerSubset = 200
	cfg.Seed = 6
	d := GenerateCorpus(cfg, 1)
	ix := d.Subsets[0]
	queries := d.SampleQueries(8, 30)
	agree := 0
	total := 0
	for _, qs := range queries {
		q := ix.ParseQuery(qs)
		if len(q.Terms) == 0 {
			continue
		}
		hits := ix.Search(q, 10)
		if len(hits) == 0 {
			continue
		}
		// Query topic from its text ("t<k>w...").
		var topic int
		if _, err := fmtSscanfTopic(qs, &topic); err != nil {
			t.Fatalf("unparseable query %q", qs)
		}
		for _, h := range hits {
			total++
			if d.Topics[0][h.Doc] == topic {
				agree++
			}
		}
	}
	if total == 0 {
		t.Fatal("no hits at all")
	}
	if frac := float64(agree) / float64(total); frac < 0.8 {
		t.Fatalf("only %.2f of hits match query topic", frac)
	}
}

// fmtSscanfTopic extracts the topic id from a query like "t3w7 t3w1 ".
func fmtSscanfTopic(q string, topic *int) (int, error) {
	var w int
	n, err := sscanf(q, topic, &w)
	return n, err
}

func sscanf(q string, topic, w *int) (int, error) {
	// Minimal manual parse to avoid fmt's scanning quirks with our token
	// format: expects leading "t<digits>w".
	i := 0
	if i >= len(q) || q[i] != 't' {
		return 0, errParse
	}
	i++
	v := 0
	start := i
	for i < len(q) && q[i] >= '0' && q[i] <= '9' {
		v = v*10 + int(q[i]-'0')
		i++
	}
	if i == start {
		return 0, errParse
	}
	*topic = v
	return 1, nil
}

var errParse = errorString("parse error")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestPoissonArrivals(t *testing.T) {
	rng := stats.NewRNG(10)
	arr := PoissonArrivals(rng, 50, 60_000)
	if len(arr) < 2400 || len(arr) > 3600 {
		t.Fatalf("50/s over 60s gave %d arrivals", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
	if arr[len(arr)-1] >= 60_000 {
		t.Fatal("arrival beyond horizon")
	}
	if PoissonArrivals(rng, 0, 1000) != nil {
		t.Fatal("zero rate should give nil")
	}
}

func TestSogouPatternShape(t *testing.T) {
	p := SogouLikePattern(100)
	// Peak hour (21, index 20) at 100 req/s.
	if p.HourlyRate[20] != 100 {
		t.Fatalf("peak = %v", p.HourlyRate[20])
	}
	// Night trough far below daytime.
	if p.HourlyRate[4] > 0.2*p.HourlyRate[20] {
		t.Fatalf("trough %v too high", p.HourlyRate[4])
	}
	// Hour 9 (8-9am, index 8) must be increasing within the hour.
	const hourMs = 3600_000.0
	early := p.Rate(8*hourMs + 5*60_000)
	late := p.Rate(9*hourMs - 5*60_000)
	if late <= early {
		t.Fatalf("hour 9 not increasing: %v -> %v", early, late)
	}
	// Hour 24 (index 23) must be decreasing within the hour.
	early = p.Rate(23*hourMs + 5*60_000)
	late = p.Rate(24*hourMs - 5*60_000)
	if late >= early {
		t.Fatalf("hour 24 not decreasing: %v -> %v", early, late)
	}
}

func TestRateWraparound(t *testing.T) {
	p := SogouLikePattern(80)
	const day = 24 * 3600_000.0
	if math.Abs(p.Rate(0)-p.Rate(day)) > 1e-9 {
		t.Fatal("rate not periodic")
	}
	if math.Abs(p.Rate(-3600_000)-p.Rate(day-3600_000)) > 1e-9 {
		t.Fatal("negative time not wrapped")
	}
}

func TestHourArrivalsMatchRate(t *testing.T) {
	p := SogouLikePattern(60)
	rng := stats.NewRNG(11)
	arr := p.HourArrivals(rng, 8, 9) // paper hour 9
	mean := p.MeanRate(8, 9)
	want := mean * 3600
	if float64(len(arr)) < want*0.9 || float64(len(arr)) > want*1.1 {
		t.Fatalf("hour-9 arrivals %d, want ~%.0f", len(arr), want)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
	if len(arr) > 0 && (arr[0] < 0 || arr[len(arr)-1] >= 3600_000) {
		t.Fatal("arrivals outside window")
	}
	// The first half of hour 9 must be quieter than the second (ramping).
	half := 0
	for _, a := range arr {
		if a < 1800_000 {
			half++
		}
	}
	if half*2 >= len(arr) {
		t.Fatalf("hour 9 arrivals not ramping: %d of %d in first half", half, len(arr))
	}
}

func TestMeanRatePositive(t *testing.T) {
	p := SogouLikePattern(50)
	for h := 0; h < 24; h++ {
		if p.MeanRate(float64(h), float64(h+1)) <= 0 {
			t.Fatalf("hour %d mean rate not positive", h)
		}
	}
}

func TestCorpusThemeStructure(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.DocsPerSubset = 150
	cfg.Seed = 20
	d := GenerateCorpus(cfg, 1)
	ix := d.Subsets[0]
	// Theme vocabulary must exist and be shared across same-theme topics:
	// a theme word should match documents of several topics.
	id, ok := ix.TermID("th0w0")
	if !ok {
		t.Fatal("theme vocabulary missing")
	}
	_ = id
	q := ix.ParseQuery("th0w0 th0w1")
	hits := ix.Search(q, 50)
	topicsSeen := map[int]bool{}
	for _, h := range hits {
		topicsSeen[d.Topics[0][h.Doc]] = true
	}
	if len(topicsSeen) < 2 {
		t.Fatalf("theme words matched only %d topics", len(topicsSeen))
	}
	// All matched topics must belong to theme 0 (topic %% Themes == 0).
	for topic := range topicsSeen {
		if topic%cfg.Themes != 0 {
			t.Fatalf("theme-0 word matched topic %d", topic)
		}
	}
}

func TestCorpusDeterministic(t *testing.T) {
	cfg := DefaultCorpusConfig()
	cfg.DocsPerSubset = 60
	cfg.Seed = 21
	a := GenerateCorpus(cfg, 1)
	b := GenerateCorpus(cfg, 1)
	if a.Subsets[0].NumTerms() != b.Subsets[0].NumTerms() {
		t.Fatal("corpus not deterministic")
	}
	qa := a.SampleQueries(5, 10)
	qb := b.SampleQueries(5, 10)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("queries not deterministic")
		}
	}
}

func TestSampleCFRequestsDeterministic(t *testing.T) {
	cfg := DefaultRatingsConfig()
	cfg.UsersPerSubset = 40
	cfg.Seed = 22
	d := GenerateRatings(cfg, 1)
	a := d.SampleCFRequests(9, 20, 0.2)
	b := d.SampleCFRequests(9, 20, 0.2)
	if len(a) != len(b) {
		t.Fatal("request count differs")
	}
	for i := range a {
		if len(a[i].Known) != len(b[i].Known) || len(a[i].Targets) != len(b[i].Targets) {
			t.Fatalf("request %d differs", i)
		}
	}
	// A different seed must give different requests.
	c := d.SampleCFRequests(10, 20, 0.2)
	same := true
	for i := range a {
		if i < len(c) && (len(a[i].Known) != len(c[i].Known) || len(a[i].Targets) != len(c[i].Targets)) {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		// Lengths can coincide; compare first target items.
		diff := false
		for i := range a {
			if a[i].Targets[0] != c[i].Targets[0] {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds gave identical requests")
		}
	}
}

func TestRatingsLowRankStructure(t *testing.T) {
	// The generator must produce genuinely low-rank taste structure: some
	// cluster pairs correlate strongly (positively or negatively), unlike
	// isotropic random profiles.
	cfg := DefaultRatingsConfig()
	cfg.UsersPerSubset = 100
	cfg.Seed = 23
	d := GenerateRatings(cfg, 1)
	m := d.Subsets[0]
	cl := d.Clusters[0]
	// Find two users from different clusters with |w| > 0.8: with
	// low-rank tastes such pairs must exist.
	found := false
	for a := 0; a < 60 && !found; a++ {
		for b := a + 1; b < 60; b++ {
			if cl[a] == cl[b] {
				continue
			}
			w := cf.Weight(m.Ratings(a), m.Ratings(b))
			if w > 0.8 || w < -0.8 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no strongly correlated cross-cluster pair; structure looks isotropic")
	}
}

func TestZipfDrawBounds(t *testing.T) {
	rng := stats.NewRNG(24)
	counts := make([]int, 20)
	for i := 0; i < 20000; i++ {
		k := zipfDraw(rng, 20)
		if k < 0 || k >= 20 {
			t.Fatalf("draw %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[10] {
		t.Fatalf("zipf head not heavier: %v", counts)
	}
}

// pageTextFmt is pageText written with one fmt.Fprintf per token: the
// reference its appending form must equal byte for byte.
func pageTextFmt(d *CorpusData, rng *stats.RNG, topic int) string {
	theme := topic % d.cfg.Themes
	var sb strings.Builder
	for w := 0; w < d.cfg.DocTokens; w++ {
		r := rng.Float64()
		switch {
		case r < d.cfg.TopicBias:
			fmt.Fprintf(&sb, "t%dw%d ", topic, zipfDraw(rng, d.cfg.TopicVocab))
		case r < d.cfg.TopicBias+d.cfg.ThemeBias:
			fmt.Fprintf(&sb, "th%dw%d ", theme, zipfDraw(rng, d.cfg.ThemeVocab))
		default:
			fmt.Fprintf(&sb, "bg%d ", zipfDraw(rng, d.cfg.SharedVocab))
		}
	}
	return sb.String()
}

// TestPageTextMatchesFmtReference: generated pages are byte-identical to
// the fmt form for several seeds, at the default shape and at one with
// multi-digit topics, themes and vocabularies, with all three token kinds
// (topic, theme, background) drawn.
func TestPageTextMatchesFmtReference(t *testing.T) {
	wide := DefaultCorpusConfig()
	wide.Themes, wide.Topics = 17, 230
	wide.TopicVocab, wide.ThemeVocab, wide.SharedVocab = 1200, 3000, 40000
	for _, cfg := range []CorpusConfig{DefaultCorpusConfig(), wide} {
		kinds := map[string]int{}
		for seed := uint64(1); seed <= 6; seed++ {
			d := &CorpusData{cfg: cfg}
			a, b := stats.NewRNG(seed), stats.NewRNG(seed)
			for p := 0; p < 40; p++ {
				topic := (int(seed)*37 + p*11) % cfg.Topics
				got, want := d.pageText(a, topic), pageTextFmt(d, b, topic)
				if got != want {
					t.Fatalf("seed %d page %d:\n got %q\nwant %q", seed, p, got, want)
				}
				for _, tok := range strings.Fields(want) {
					switch {
					case strings.HasPrefix(tok, "th"):
						kinds["theme"]++
					case strings.HasPrefix(tok, "t"):
						kinds["topic"]++
					case strings.HasPrefix(tok, "bg"):
						kinds["background"]++
					}
				}
			}
		}
		if len(kinds) != 3 {
			t.Fatalf("token kinds drawn: %v, want all three", kinds)
		}
	}
}
