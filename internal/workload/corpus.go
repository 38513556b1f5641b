package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"accuracytrader/internal/stats"
	"accuracytrader/internal/textindex"
)

// CorpusConfig shapes the synthetic web corpus. Topics are grouped into
// theme families (e.g. sports/tech/finance) with a shared family
// vocabulary: real web corpora have this hierarchical, low-rank topic
// structure, and it is what lets the paper's 3-dimensional SVD reduction
// preserve page similarity. Flat isotropic topics would not embed in
// three dimensions.
type CorpusConfig struct {
	DocsPerSubset int     // paper: 0.5M; default laptop scale far lower
	Themes        int     // theme families
	Topics        int     // topical clusters of pages (spread over themes)
	TopicVocab    int     // characteristic words per topic
	ThemeVocab    int     // characteristic words per theme family
	SharedVocab   int     // background vocabulary (Zipf-distributed)
	DocTokens     int     // tokens per page
	TopicBias     float64 // fraction of tokens from the page's topic vocabulary
	ThemeBias     float64 // fraction of tokens from the page's theme vocabulary
	Seed          uint64
}

// DefaultCorpusConfig returns a laptop-scale corpus with the structure
// the search-engine experiments need.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{
		DocsPerSubset: 400,
		Themes:        3,
		Topics:        9,
		TopicVocab:    40,
		ThemeVocab:    60,
		SharedVocab:   400,
		DocTokens:     60,
		TopicBias:     0.45,
		ThemeBias:     0.30,
	}
}

// CorpusData is the generated search input: per-subset inverted indexes
// over topically clustered pages, plus the topic of every page.
type CorpusData struct {
	Subsets []*textindex.Index
	Topics  [][]int
	cfg     CorpusConfig
}

// GenerateCorpus builds nSubsets indexes. Pages concentrate on one topic
// each: tokens come from the page's topic vocabulary, its theme family's
// vocabulary, and the shared background vocabulary, all Zipf-distributed.
func GenerateCorpus(cfg CorpusConfig, nSubsets int) *CorpusData {
	if cfg.Themes <= 0 {
		cfg.Themes = 1
	}
	rng := stats.NewRNG(cfg.Seed ^ 0xabcdef)
	d := &CorpusData{cfg: cfg}
	for s := 0; s < nSubsets; s++ {
		srng := rng.Split(uint64(s) + 1)
		ix := textindex.NewIndex()
		topics := make([]int, cfg.DocsPerSubset)
		for p := 0; p < cfg.DocsPerSubset; p++ {
			topic := srng.Intn(cfg.Topics)
			topics[p] = topic
			ix.Add(d.pageText(srng, topic))
		}
		d.Subsets = append(d.Subsets, ix)
		d.Topics = append(d.Topics, topics)
	}
	return d
}

// pageText synthesizes one page's content. Zipf samplers are rebuilt per
// call from the page RNG; their CDFs are cached per config so this stays
// cheap.
func (d *CorpusData) pageText(rng *stats.RNG, topic int) string {
	theme := topic % d.cfg.Themes
	b := make([]byte, 0, 12*d.cfg.DocTokens)
	for w := 0; w < d.cfg.DocTokens; w++ {
		r := rng.Float64()
		switch {
		case r < d.cfg.TopicBias:
			b = strconv.AppendInt(append(b, 't'), int64(topic), 10)
			b = strconv.AppendInt(append(b, 'w'), int64(zipfDraw(rng, d.cfg.TopicVocab)), 10)
		case r < d.cfg.TopicBias+d.cfg.ThemeBias:
			b = strconv.AppendInt(append(b, "th"...), int64(theme), 10)
			b = strconv.AppendInt(append(b, 'w'), int64(zipfDraw(rng, d.cfg.ThemeVocab)), 10)
		default:
			b = strconv.AppendInt(append(b, "bg"...), int64(zipfDraw(rng, d.cfg.SharedVocab)), 10)
		}
		b = append(b, ' ')
	}
	return string(b)
}

// zipfDraw draws a Zipf(1.05) rank in [0,n) via inverse-power sampling —
// an approximation that avoids carrying sampler state per vocabulary.
func zipfDraw(rng *stats.RNG, n int) int {
	u := rng.Float64()
	// Inverse CDF of a continuous power-law on [1, n+1).
	x := pow(float64(n+1), u)
	k := int(x) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

func pow(base, exp float64) float64 {
	return math.Exp(exp * math.Log(base))
}

// SampleQueries draws n queries: each picks a topic and 2-3 of its
// characteristic words (weighted like page text, so frequent page words
// are frequent query words, as in real query logs).
func (d *CorpusData) SampleQueries(seed uint64, n int) []string {
	rng := stats.NewRNG(seed ^ 0x2545f491)
	out := make([]string, n)
	for i := range out {
		topic := rng.Intn(d.cfg.Topics)
		terms := 2 + rng.Intn(2)
		var sb strings.Builder
		for k := 0; k < terms; k++ {
			fmt.Fprintf(&sb, "t%dw%d ", topic, zipfDraw(rng, d.cfg.TopicVocab))
		}
		out[i] = sb.String()
	}
	return out
}
