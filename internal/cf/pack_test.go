package cf_test

import (
	"math"
	"testing"

	"accuracytrader/internal/cf"
	"accuracytrader/internal/svd"
	"accuracytrader/internal/synopsis"
	"accuracytrader/internal/workload"
)

// TestBuildComponentPacksBenchShards builds the benchmark's CF fixture
// (default ratings, 8 shards, seed 1, its synopsis settings) and checks
// that BuildComponent leaves each shard's rating rows packed, and that
// exact results over the packed shards equal, by bits, those over an
// unpacked copy.
func TestBuildComponentPacksBenchShards(t *testing.T) {
	cfg := workload.DefaultRatingsConfig()
	cfg.Seed = 1
	packed, unpacked := workload.GenerateRatings(cfg, 8), workload.GenerateRatings(cfg, 8)
	reqs := packed.SampleCFRequests(1^0xcf, 32, 0.2)
	syn := synopsis.Config{SVD: svd.Config{Dims: 3, Epochs: 25, Seed: 1 ^ 0x5f}, CompressionRatio: 8, FoldInEpochs: 25}
	totalSlots, totalLive := 0, 0
	for s, m := range packed.Subsets {
		ref := unpacked.Subsets[s]
		slots, live := cf.RatingSlots(ref)
		if slots == live {
			t.Fatalf("shard %d: the unpacked copy holds no slack (%d slots)", s, slots)
		}
		totalSlots += slots
		c, err := cf.BuildComponent(m, syn)
		if err != nil {
			t.Fatal(err)
		}
		if slots, live := cf.RatingSlots(m); slots != live {
			t.Fatalf("shard %d: %d slots for %d live ratings after BuildComponent", s, slots, live)
		}
		totalLive += live
		refComp := &cf.Component{M: ref}
		for i, r := range reqs {
			req := cf.NewRequest(r.Known, r.Targets)
			got, want := cf.ExactResult(c, req), cf.ExactResult(refComp, req)
			for j := range want.Num {
				if math.Float64bits(got.Num[j]) != math.Float64bits(want.Num[j]) ||
					math.Float64bits(got.Den[j]) != math.Float64bits(want.Den[j]) {
					t.Fatalf("shard %d request %d target %d: %v/%v, unpacked %v/%v",
						s, i, j, got.Num[j], got.Den[j], want.Num[j], want.Den[j])
				}
			}
		}
	}
	t.Logf("ratings: %d live, %d slots unpacked", totalLive, totalSlots)
}
