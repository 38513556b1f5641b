package rtree

import (
	"sort"
	"testing"
	"testing/quick"

	"accuracytrader/internal/stats"
)

func randPoints(rng *stats.RNG, n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.Float64() * 100
		}
		items[i] = Item{Point: p, ID: i}
	}
	return items
}

func TestRectBasics(t *testing.T) {
	r := NewRect([]float64{0, 0}, []float64{2, 3})
	if r.Area() != 6 {
		t.Fatalf("Area = %v", r.Area())
	}
	if r.Margin() != 5 {
		t.Fatalf("Margin = %v", r.Margin())
	}
	s := NewRect([]float64{1, 1}, []float64{2, 2})
	if !r.Contains(s) || s.Contains(r) {
		t.Fatal("containment wrong")
	}
	far := NewRect([]float64{10, 10}, []float64{11, 11})
	u := r.Union(far)
	if u.Lo[0] != 0 || u.Hi[0] != 11 {
		t.Fatalf("union = %+v", u)
	}
	if got := r.Enlargement(far); got != 11*11-6 {
		t.Fatalf("enlargement = %v", got)
	}
	c := s.Center()
	if c[0] != 1.5 || c[1] != 1.5 {
		t.Fatalf("center = %v", c)
	}
	if !r.ContainsPoint([]float64{1, 1}) || r.ContainsPoint([]float64{3, 0}) {
		t.Fatal("ContainsPoint wrong")
	}
}

func TestRectPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewRect([]float64{0}, []float64{1, 2}) },
		func() { NewRect([]float64{2}, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestInsertAndSearch(t *testing.T) {
	tr := NewDefault(2)
	rng := stats.NewRNG(1)
	items := randPoints(rng, 500, 2)
	for _, it := range items {
		tr.Insert(it.Point, it.ID)
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Point search: every item is found in a leaf under its own
	// rectangle, and an ID never inserted is found nowhere.
	for _, it := range items {
		if leaf, _ := tr.findLeaf(tr.root, PointRect(it.Point), it.ID); leaf == nil {
			t.Fatalf("item %d not found", it.ID)
		}
	}
	if leaf, _ := tr.findLeaf(tr.root, PointRect(items[0].Point), 500); leaf != nil {
		t.Fatal("found an ID that was never inserted")
	}
}

func TestAllReturnsEverything(t *testing.T) {
	tr := NewDefault(3)
	rng := stats.NewRNG(2)
	for _, it := range randPoints(rng, 300, 3) {
		tr.Insert(it.Point, it.ID)
	}
	ids := tr.All(nil)
	if len(ids) != 300 {
		t.Fatalf("All returned %d", len(ids))
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != i {
			t.Fatalf("missing/dup id at %d: %d", i, id)
		}
	}
}

func TestDelete(t *testing.T) {
	tr := NewDefault(2)
	rng := stats.NewRNG(3)
	items := randPoints(rng, 400, 2)
	for _, it := range items {
		tr.Insert(it.Point, it.ID)
	}
	// Delete every third item.
	deleted := map[int]bool{}
	for i := 0; i < len(items); i += 3 {
		if !tr.Delete(items[i].Point, items[i].ID) {
			t.Fatalf("Delete(%d) failed", i)
		}
		deleted[i] = true
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ids := tr.All(nil)
	if len(ids) != tr.Len() {
		t.Fatalf("All len %d vs size %d", len(ids), tr.Len())
	}
	for _, id := range ids {
		if deleted[id] {
			t.Fatalf("deleted id %d still present", id)
		}
	}
	// Deleting a missing item returns false.
	if tr.Delete([]float64{-999, -999}, 123456) {
		t.Fatal("Delete of absent item returned true")
	}
}

func TestDeleteAll(t *testing.T) {
	tr := NewDefault(2)
	rng := stats.NewRNG(4)
	items := randPoints(rng, 100, 2)
	for _, it := range items {
		tr.Insert(it.Point, it.ID)
	}
	for _, it := range items {
		if !tr.Delete(it.Point, it.ID) {
			t.Fatalf("Delete(%d) failed", it.ID)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after delete %d: %v", it.ID, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	// Tree must remain usable.
	tr.Insert([]float64{1, 1}, 7)
	if got := tr.All(nil); len(got) != 1 || got[0] != 7 {
		t.Fatalf("reuse after empty failed: %v", got)
	}
}

func TestBulkLoad(t *testing.T) {
	rng := stats.NewRNG(5)
	for _, n := range []int{0, 1, 5, 16, 17, 100, 1000, 4321} {
		items := randPoints(rng, n, 3)
		tr := Bulk(3, DefaultMax/4, DefaultMax, items)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ids := tr.All(nil)
		sort.Ints(ids)
		for i, id := range ids {
			if id != i {
				t.Fatalf("n=%d: id set corrupted at %d", n, i)
			}
		}
	}
}

func TestBulkThenDynamicOps(t *testing.T) {
	rng := stats.NewRNG(6)
	items := randPoints(rng, 800, 2)
	tr := Bulk(2, DefaultMax/4, DefaultMax, items)
	// Dynamic inserts on a bulk-loaded tree.
	extra := randPoints(rng, 200, 2)
	for i, it := range extra {
		tr.Insert(it.Point, 800+i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 400; i++ {
		if !tr.Delete(items[i].Point, items[i].ID) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHeightGrowth(t *testing.T) {
	tr := NewDefault(2)
	if tr.Height() != 1 {
		t.Fatalf("empty height = %d", tr.Height())
	}
	rng := stats.NewRNG(7)
	for _, it := range randPoints(rng, 2000, 2) {
		tr.Insert(it.Point, it.ID)
	}
	h := tr.Height()
	if h < 3 {
		t.Fatalf("2000 points with fanout 16 should have height >= 3, got %d", h)
	}
}

// levelAt returns the nodes at depth d (0 = root), walked with the
// cut's own level step.
func levelAt(tr *Tree, d int) []*node {
	level := []*node{tr.root}
	for ; d > 0; d-- {
		level = children(level)
	}
	return level
}

func TestNodesAtDepthPartition(t *testing.T) {
	rng := stats.NewRNG(8)
	items := randPoints(rng, 1500, 3)
	tr := Bulk(3, DefaultMax/4, DefaultMax, items)
	for d := 0; d < tr.Height(); d++ {
		seen := map[int]bool{}
		total := 0
		for _, n := range levelAt(tr, d) {
			members := tr.collectIDs(n, nil)
			total += len(members)
			for _, id := range members {
				if seen[id] {
					t.Fatalf("depth %d: id %d under two nodes", d, id)
				}
				seen[id] = true
			}
		}
		if total != 1500 {
			t.Fatalf("depth %d: members total %d, want 1500", d, total)
		}
	}
}

func TestNodesAtDepthCountsGrow(t *testing.T) {
	rng := stats.NewRNG(9)
	tr := Bulk(2, DefaultMax/4, DefaultMax, randPoints(rng, 3000, 2))
	prev := 0
	for d := 0; d < tr.Height(); d++ {
		c := len(levelAt(tr, d))
		if c < prev {
			t.Fatalf("node count shrank from %d to %d at depth %d", prev, c, d)
		}
		prev = c
	}
	if len(levelAt(tr, 0)) != 1 {
		t.Fatalf("root level count = %d", len(levelAt(tr, 0)))
	}
}

// TestChooseDepth pins deepestLevelWithin: the level it returns fits
// maxNodes, and the next one down (if any) does not.
func TestChooseDepth(t *testing.T) {
	rng := stats.NewRNG(10)
	tr := Bulk(2, DefaultMax/4, DefaultMax, randPoints(rng, 4096, 2))
	for _, maxNodes := range []int{1, 10, 40, 100, 1000} {
		got := tr.deepestLevelWithin(maxNodes)
		d := 0
		for d < tr.Height() && levelAt(tr, d)[0] != got[0] {
			d++
		}
		if d == tr.Height() {
			t.Fatalf("deepestLevelWithin(%d) returned no level of the tree", maxNodes)
		}
		if len(got) > maxNodes {
			t.Fatalf("deepestLevelWithin(%d) -> depth %d with %d nodes", maxNodes, d, len(got))
		}
		if d+1 < tr.Height() {
			if next := len(levelAt(tr, d+1)); next <= maxNodes {
				t.Fatalf("deepestLevelWithin(%d) not deepest: depth %d has %d nodes", maxNodes, d+1, next)
			}
		}
	}
}

func TestSimilarPointsGroupTogether(t *testing.T) {
	// Two tight, well-separated clusters inserted dynamically: at most a
	// small fraction of points may end up in a cut that mixes clusters
	// (the quadratic split separates them by area waste).
	tr := NewDefault(2)
	rng := stats.NewRNG(11)
	for i := 0; i < 256; i++ {
		tr.Insert([]float64{rng.Norm(0, 0.5), rng.Norm(0, 0.5)}, i)
	}
	for i := 256; i < 512; i++ {
		tr.Insert([]float64{rng.Norm(100, 0.5), rng.Norm(100, 0.5)}, i)
	}
	mixed := 0
	for _, leaf := range levelAt(tr, tr.Height()-1) {
		lo, hi := 0, 0
		for _, id := range tr.collectIDs(leaf, nil) {
			if id < 256 {
				lo++
			} else {
				hi++
			}
		}
		if lo > 0 && hi > 0 {
			mixed += lo + hi
		}
	}
	if mixed > 512/10 {
		t.Fatalf("%d of 512 points live in cluster-mixing leaves", mixed)
	}
}

func TestQuickInsertDeleteInvariants(t *testing.T) {
	rng := stats.NewRNG(12)
	f := func(seed uint32, nOps uint8) bool {
		r := rng.Split(uint64(seed))
		tr := New(2, 2, 8)
		type live struct {
			p  []float64
			id int
		}
		var alive []live
		next := 0
		ops := int(nOps)%120 + 10
		for i := 0; i < ops; i++ {
			if len(alive) == 0 || r.Float64() < 0.6 {
				p := []float64{r.Float64() * 50, r.Float64() * 50}
				tr.Insert(p, next)
				alive = append(alive, live{p, next})
				next++
			} else {
				k := r.Intn(len(alive))
				if !tr.Delete(alive[k].p, alive[k].id) {
					return false
				}
				alive = append(alive[:k], alive[k+1:]...)
			}
			if tr.CheckInvariants() != nil {
				return false
			}
			if tr.Len() != len(alive) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	for _, c := range []struct{ dim, min, max int }{{0, 2, 8}, {2, 1, 8}, {2, 5, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d,%d) did not panic", c.dim, c.min, c.max)
				}
			}()
			New(c.dim, c.min, c.max)
		}()
	}
}

func TestInsertDimensionMismatchPanics(t *testing.T) {
	tr := NewDefault(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Insert([]float64{1, 2, 3}, 0)
}
