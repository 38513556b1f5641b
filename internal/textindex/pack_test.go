package textindex_test

import (
	"math"
	"testing"

	"accuracytrader/internal/svd"
	"accuracytrader/internal/synopsis"
	"accuracytrader/internal/textindex"
	"accuracytrader/internal/workload"
)

// TestBuildComponentPacksBenchShards builds the benchmark's search
// fixture (default corpus, 8 shards, seed 1, its synopsis settings) and
// checks that BuildComponent leaves each shard's postings and term
// vectors packed, and that Search and ExactTopK over the packed shards
// equal, by bits, the same queries over an unpacked copy.
func TestBuildComponentPacksBenchShards(t *testing.T) {
	cfg := workload.DefaultCorpusConfig()
	cfg.Seed = 1
	packed, unpacked := workload.GenerateCorpus(cfg, 8), workload.GenerateCorpus(cfg, 8)
	queries := packed.SampleQueries(1^0x5ea, 64)
	syn := synopsis.Config{SVD: svd.Config{Dims: 3, Epochs: 25, Seed: 1 ^ 0x5f}, CompressionRatio: 8, FoldInEpochs: 25}
	totalSlots, totalLive := 0, 0
	for s, ix := range packed.Subsets {
		ref := unpacked.Subsets[s]
		slots, live := textindex.StoreSlots(ref)
		if slots == live {
			t.Fatalf("shard %d: the unpacked copy holds no slack (%d slots)", s, slots)
		}
		totalSlots += slots
		c, err := textindex.BuildComponent(ix, syn)
		if err != nil {
			t.Fatal(err)
		}
		if slots, live := textindex.StoreSlots(ix); slots != live {
			t.Fatalf("shard %d: %d slots for %d live rows after BuildComponent", s, slots, live)
		}
		totalLive += live
		refComp := &textindex.Component{Ix: ref}
		for _, text := range queries {
			q, rq := ix.ParseQuery(text), ref.ParseQuery(text)
			assertBitEqual(t, ix.Search(q, 10), ref.Search(rq, 10), "Search", s, text)
			assertBitEqual(t, textindex.ExactTopK(c, q, 10), textindex.ExactTopK(refComp, rq, 10), "ExactTopK", s, text)
		}
	}
	t.Logf("postings and term vectors: %d live elements, %d slots unpacked", totalLive, totalSlots)
}

func assertBitEqual(t *testing.T, got, want []textindex.Hit, what string, shard int, query string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s shard %d %q: %d hits, unpacked %d", what, shard, query, len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s shard %d %q: hit %d %+v, unpacked %+v", what, shard, query, i, got[i], want[i])
		}
	}
}
