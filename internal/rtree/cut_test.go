package rtree

import (
	"sort"
	"testing"
	"testing/quick"

	"accuracytrader/internal/stats"
)

func TestCutToTargetPartition(t *testing.T) {
	rng := stats.NewRNG(1)
	items := randPoints(rng, 1200, 3)
	tr := Bulk(3, 2, 8, items)
	for _, target := range []int{1, 5, 20, 60, 150} {
		cuts := tr.CutToTarget(target)
		if len(cuts) > target {
			t.Fatalf("target %d: %d cuts", target, len(cuts))
		}
		seen := map[int]bool{}
		for _, c := range cuts {
			for _, id := range c.Members {
				if seen[id] {
					t.Fatalf("target %d: duplicate id %d", target, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != 1200 {
			t.Fatalf("target %d: covered %d of 1200", target, len(seen))
		}
	}
}

func TestCutToTargetApproachesTarget(t *testing.T) {
	// The refinement must do much better than the raw depth cut when the
	// per-level counts jump past the target.
	rng := stats.NewRNG(2)
	items := randPoints(rng, 800, 3)
	tr := Bulk(3, 2, 8, items)
	target := 60
	depthCount := len(tr.deepestLevelWithin(target))
	refined := len(tr.CutToTarget(target))
	if refined < depthCount {
		t.Fatalf("refinement lost nodes: %d < %d", refined, depthCount)
	}
	if refined < target/2 {
		t.Fatalf("refined cut %d still far from target %d", refined, target)
	}
}

func TestCutToTargetEmptyAndTiny(t *testing.T) {
	tr := NewDefault(2)
	if cuts := tr.CutToTarget(10); cuts != nil {
		t.Fatalf("empty tree cuts = %v", cuts)
	}
	tr.Insert([]float64{1, 2}, 0)
	cuts := tr.CutToTarget(10)
	if len(cuts) != 1 || len(cuts[0].Members) != 1 {
		t.Fatalf("single-point cut = %v", cuts)
	}
	// A non-positive target clamps to 1.
	if got := tr.CutToTarget(0); len(got) != 1 {
		t.Fatalf("target 0 gave %d cuts", len(got))
	}
}

func TestCutToTargetSplitsLargestFirst(t *testing.T) {
	// With two clusters of very different sizes, the refinement should
	// split the big cluster's node before the small one's.
	var items []Item
	rng := stats.NewRNG(3)
	for i := 0; i < 300; i++ {
		items = append(items, Item{Point: []float64{rng.Norm(0, 1), rng.Norm(0, 1)}, ID: i})
	}
	for i := 300; i < 330; i++ {
		items = append(items, Item{Point: []float64{rng.Norm(100, 1), rng.Norm(100, 1)}, ID: i})
	}
	tr := Bulk(2, 2, 8, items)
	cuts := tr.CutToTarget(8)
	// Count cuts dominated by the big cluster.
	big := 0
	for _, c := range cuts {
		inBig := 0
		for _, id := range c.Members {
			if id < 300 {
				inBig++
			}
		}
		if inBig*2 > len(c.Members) {
			big++
		}
	}
	if big < len(cuts)/2 {
		t.Fatalf("big cluster got %d of %d cuts", big, len(cuts))
	}
}

func TestCutToTargetDynamicTreeProperty(t *testing.T) {
	rng := stats.NewRNG(4)
	f := func(seed uint32, n uint8) bool {
		r := rng.Split(uint64(seed))
		tr := New(2, 2, 8)
		count := int(n)%200 + 10
		for i := 0; i < count; i++ {
			tr.Insert([]float64{r.Float64() * 10, r.Float64() * 10}, i)
		}
		for _, target := range []int{1, 4, 16} {
			cuts := tr.CutToTarget(target)
			if len(cuts) > target || len(cuts) == 0 {
				return false
			}
			total := 0
			ids := map[int]bool{}
			for _, c := range cuts {
				total += len(c.Members)
				for _, id := range c.Members {
					ids[id] = true
				}
			}
			if total != count || len(ids) != count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := stats.NewRNG(5)
	items := randPoints(rng, 500, 3)
	tr := Bulk(3, 2, 8, items)
	for i := 0; i < 50; i++ {
		tr.Delete(items[i].Point, items[i].ID)
	}
	snap := tr.Snapshot()
	back := FromSnapshot(snap)
	if err := back.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() || back.Height() != tr.Height() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", back.Len(), back.Height(), tr.Len(), tr.Height())
	}
	a := tr.All(nil)
	b := back.All(nil)
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ids changed across snapshot")
		}
	}
	// The cut structure must be identical (this is why we snapshot the
	// tree instead of re-bulk-loading).
	ca := tr.CutToTarget(40)
	cb := back.CutToTarget(40)
	if len(ca) != len(cb) {
		t.Fatalf("cut counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if len(ca[i].Members) != len(cb[i].Members) {
			t.Fatalf("cut %d sizes differ", i)
		}
	}
	// The restored tree must accept further operations.
	back.Insert([]float64{0.5, 0.5, 0.5}, 9999)
	if err := back.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
