package ingest

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/stats"
)

// oddQueries have bounds that compare equal but differ in bits (±0),
// match nothing (NaN) or everything (±Inf): each must be answered as a
// memo-less scan answers it.
var oddQueries = []agg.Query{
	{Op: agg.Sum, Lo: math.Inf(-1), Hi: math.Inf(1)},
	{Op: agg.Count, Lo: 0, Hi: 0.5},
	{Op: agg.Count, Lo: math.Copysign(0, -1), Hi: 0.5},
	{Op: agg.Avg, Lo: math.NaN(), Hi: 1},
	{Op: agg.Sum, Lo: 0.25, Hi: math.NaN()},
	{Op: agg.Avg, Lo: math.Inf(1), Hi: math.Inf(-1)},
	{Op: agg.Sum, Lo: 0.2, Hi: 0.9},
}

// memoless answers q on snap the way Exact did before the memo: a scan
// of the base, then the delta folded on top.
func memoless(res agg.Result, snap *AggSnapshot, q agg.Query) agg.Result {
	if snap.comp != nil {
		res = agg.ExactResultInto(res, snap.comp, q)
	} else {
		res = res.Reset(snap.numKeys)
	}
	res.Fold(q, snap.deltaKeys, snap.deltaVals)
	return res
}

// memolessLevel answers q at level on snap the way QueryLevel did
// before the memo: the base's synopsis pass merged into a zeroed
// result, then the delta folded on top.
func memolessLevel(res agg.Result, snap *AggSnapshot, q agg.Query, level int) agg.Result {
	res = res.Reset(snap.numKeys)
	if snap.comp != nil {
		e := agg.GetEngine(snap.comp, q, level)
		e.ProcessSynopsis()
		res.Merge(e.Result())
		e.Release()
	}
	res.Fold(q, snap.deltaKeys, snap.deltaVals)
	return res
}

// sameBits compares two results bit for bit, so NaN sums compare too.
func sameBits(a, b agg.Result) error {
	if len(a.Sum) != len(b.Sum) {
		return fmt.Errorf("keys %d vs %d", len(a.Sum), len(b.Sum))
	}
	bits := math.Float64bits
	for k := range a.Sum {
		if bits(a.Sum[k]) != bits(b.Sum[k]) || bits(a.Cnt[k]) != bits(b.Cnt[k]) ||
			bits(a.SumVar[k]) != bits(b.SumVar[k]) || bits(a.CntVar[k]) != bits(b.CntVar[k]) {
			return fmt.Errorf("key %d: (%v,%v,%v,%v) vs (%v,%v,%v,%v)", k,
				a.Sum[k], a.Cnt[k], a.SumVar[k], a.CntVar[k],
				b.Sum[k], b.Cnt[k], b.SumVar[k], b.CntVar[k])
		}
	}
	return nil
}

// appendRandom appends n random rows over numKeys keys to l.
func appendRandom(tb testing.TB, l *AggLive, rng *stats.RNG, n int) {
	tb.Helper()
	keys := make([]int32, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = int32(rng.Intn(l.numKeys))
		vals[i] = rng.Float64()
	}
	if _, err := l.Append(keys, vals); err != nil {
		tb.Fatal(err)
	}
}

// TestExactMemoAcrossPublishAndCompact pins when the memo answers: a
// base's answers keep serving across delta publishes, which leave the
// base alone, and stop at the compaction that replaces it. Every
// answer, memoized or not, is == to a memo-less scan of the same
// snapshot.
func TestExactMemoAcrossPublishAndCompact(t *testing.T) {
	rng := stats.NewRNG(0x3e30)
	l := NewAggLive(6, agg.Config{Rates: []float64{0.1, 0.3}, MinSample: 2, Seed: 5})
	res, want := agg.NewResult(6), agg.NewResult(6)
	ask := func(ctx string, wantHits uint64) {
		t.Helper()
		snap, _ := l.Snapshot()
		before := l.Stats().ExactMemoHits
		for _, q := range oddQueries {
			res = snap.Exact(res, q)
			if err := sameBits(res, memoless(want, snap, q)); err != nil {
				t.Fatalf("%s %+v: %v", ctx, q, err)
			}
		}
		if got := l.Stats().ExactMemoHits - before; got != wantHits {
			t.Fatalf("%s: %d memo hits over %d queries, want %d", ctx, got, len(oddQueries), wantHits)
		}
	}
	appendRandom(t, l, rng, 200)
	l.PublishDelta()
	ask("before the first compaction", 0) // no base, nothing to memoize
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	ask("first answers of a base", 0)
	ask("the same base again", uint64(len(oddQueries)))
	appendRandom(t, l, rng, 50)
	l.PublishDelta()
	ask("after a delta publish", uint64(len(oddQueries)))
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	ask("after a compaction", 0)
	ask("the new base again", uint64(len(oddQueries)))
}

// TestLevelMemoAcrossPublishAndCompact is the level memo's twin of
// TestExactMemoAcrossPublishAndCompact, at two levels of the ladder:
// a base's level answers keep serving across delta publishes and stop
// at the compaction that replaces it, a query asked at one level is a
// miss at the other, and every answer, memoized or not, is == to a
// memo-less synopsis pass plus delta fold of the same snapshot.
func TestLevelMemoAcrossPublishAndCompact(t *testing.T) {
	rng := stats.NewRNG(0x1e7e)
	l := NewAggLive(6, agg.Config{Rates: []float64{0.1, 0.3}, MinSample: 2, Seed: 5})
	res, want := agg.NewResult(6), agg.NewResult(6)
	ask := func(ctx string, levels []int, wantHits uint64) {
		t.Helper()
		snap, _ := l.Snapshot()
		before := l.Stats()
		for _, level := range levels {
			for _, q := range oddQueries {
				res = snap.QueryLevel(res, q, level)
				if err := sameBits(res, memolessLevel(want, snap, q, level)); err != nil {
					t.Fatalf("%s, level %d, %+v: %v", ctx, level, q, err)
				}
			}
		}
		after := l.Stats()
		if got := after.LevelMemoHits - before.LevelMemoHits; got != wantHits {
			t.Fatalf("%s: %d level memo hits over %d queries, want %d", ctx, got, len(levels)*len(oddQueries), wantHits)
		}
		if after.ExactMemoHits != before.ExactMemoHits {
			t.Fatalf("%s: level answers counted %d exact memo hits", ctx, after.ExactMemoHits-before.ExactMemoHits)
		}
	}
	n := uint64(len(oddQueries))
	appendRandom(t, l, rng, 200)
	l.PublishDelta()
	ask("before the first compaction", []int{0, 1}, 0) // no base, nothing to memoize
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	ask("first answers of a base at level 0", []int{0}, 0)
	ask("the same base at level 1", []int{1}, 0)
	ask("the same base at both levels again", []int{0, 1}, 2*n)
	appendRandom(t, l, rng, 50)
	l.PublishDelta()
	ask("after a delta publish", []int{1, 0}, 2*n)
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	ask("after a compaction", []int{0, 1}, 0)
	ask("the new base again", []int{0, 1}, 2*n)
}

// TestExactMemoHeldSnapshot checks a snapshot held across a compaction:
// its base's answers may no longer be memoized, but they stay its own.
func TestExactMemoHeldSnapshot(t *testing.T) {
	rng := stats.NewRNG(0x401d)
	l := NewAggLive(4, agg.Config{Rates: []float64{0.2}, MinSample: 2, Seed: 8})
	appendRandom(t, l, rng, 300)
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	old, _ := l.Snapshot()
	res, want := agg.NewResult(4), agg.NewResult(4)
	q := oddQueries[0]
	old.Exact(res, q)
	appendRandom(t, l, rng, 100)
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	cur, _ := l.Snapshot()
	for _, snap := range []*AggSnapshot{cur, old, cur, old} {
		if err := sameBits(snap.Exact(res, q), memoless(want, snap, q)); err != nil {
			t.Fatalf("generation %d: %v", snap.gen, err)
		}
	}
}

// TestExactMemoPinsNoBase checks the memo keys answers by generation,
// not by base: once two compactions have replaced a base whose answers
// the memo still holds, the collector frees it.
func TestExactMemoPinsNoBase(t *testing.T) {
	rng := stats.NewRNG(0xf1a1)
	l := NewAggLive(5, agg.Config{Rates: []float64{0.2}, MinSample: 2, Seed: 2})
	appendRandom(t, l, rng, 400)
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	func() {
		snap, _ := l.Snapshot()
		res := agg.NewResult(5)
		for _, q := range oddQueries {
			res = snap.Exact(res, q)
		}
		runtime.SetFinalizer(snap.Base(), func(*agg.Component) { close(freed) })
	}()
	for range 2 {
		appendRandom(t, l, rng, 100)
		if _, _, _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(l) // the shard, and its memo, outlive the base
			return
		case <-deadline:
			t.Fatal("a base two compactions old is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestExactMemoSize pins both memos' fixed budget: 192 answers at 48
// group keys, two arrays an answer for Exact and four for a level, and
// none at all for a domain too wide for one answer's array, which then
// answers by scanning.
func TestExactMemoSize(t *testing.T) {
	l := NewAggLive(48, agg.Config{Rates: []float64{0.2}})
	for _, m := range []struct {
		name  string
		memo  *answerMemo
		width int
	}{{"exact", l.exact, 2}, {"level", l.levels, 4}} {
		if n, size := len(m.memo.keys), 8*len(m.memo.ans); n != 192 || size != m.width*memoArrayBudget {
			t.Fatalf("48-key shard's %s memo holds %d answers in %d bytes, want 192 in %d", m.name, n, size, m.width*memoArrayBudget)
		}
	}
	wide := memoArrayBudget/8 + 1
	l = NewAggLive(wide, agg.Config{Rates: []float64{0.2}, MinSample: 2, Seed: 4})
	if n, m := len(l.exact.keys), len(l.levels.keys); n != 0 || m != 0 {
		t.Fatalf("%d-key shard memoizes %d exact and %d level answers, want none", wide, n, m)
	}
	rng := stats.NewRNG(0x51ce)
	appendRandom(t, l, rng, 500)
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, _ := l.Snapshot()
	res, want := agg.NewResult(wide), agg.NewResult(wide)
	q := oddQueries[0]
	for range 2 {
		if err := sameBits(snap.Exact(res, q), memoless(want, snap, q)); err != nil {
			t.Fatal(err)
		}
		if err := sameBits(snap.QueryLevel(res, q, 0), memolessLevel(want, snap, q, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.ExactMemoHits != 0 || st.LevelMemoHits != 0 {
		t.Fatalf("a shard without memo slots counted %d exact and %d level hits", st.ExactMemoHits, st.LevelMemoHits)
	}
}

// TestMemoFillsOnce pins the replacement rule: a full memo keeps its
// generation's first answers and drops later ones, and the next
// generation frees every slot.
func TestMemoFillsOnce(t *testing.T) {
	rng := stats.NewRNG(0xf111)
	l := NewAggLive(48, agg.Config{Rates: []float64{0.2}, MinSample: 2, Seed: 6})
	appendRandom(t, l, rng, 2000)
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	slots := len(l.levels.keys)
	query := func(i int) agg.Query { return agg.Query{Op: agg.Sum, Lo: float64(i) / 1e4, Hi: 0.9} }
	res, want := agg.NewResult(48), agg.NewResult(48)
	hits := func(i int) uint64 {
		t.Helper()
		snap, _ := l.Snapshot()
		before := l.Stats().LevelMemoHits
		res = snap.QueryLevel(res, query(i), 0)
		if err := sameBits(res, memolessLevel(want, snap, query(i), 0)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		return l.Stats().LevelMemoHits - before
	}
	for i := range slots + 1 { // one more query than slots: the last is dropped
		if h := hits(i); h != 0 {
			t.Fatalf("first answer to query %d hit the memo", i)
		}
	}
	if h := hits(0); h != 1 {
		t.Fatal("the first answer left the full memo")
	}
	if h := hits(slots - 1); h != 1 {
		t.Fatal("the last answer that fit left the full memo")
	}
	if h := hits(slots); h != 0 {
		t.Fatal("an answer past the last slot replaced an earlier one")
	}
	appendRandom(t, l, rng, 10)
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if h := hits(slots); h != 0 {
		t.Fatal("an answer outlived its generation")
	}
	if h := hits(slots); h != 1 {
		t.Fatal("a new generation did not free the full memo's slots")
	}
}

// TestExactMemoDoesNotAllocate asserts every exact memo path allocates
// nothing: a hit copies into the caller's result, a miss scans into it
// and stores into a slot allocated with the shard, and once every slot
// is filled a miss scans and drops its answer. The distinct queries
// never hit, and the memo's first answer still does after them.
func TestExactMemoDoesNotAllocate(t *testing.T) {
	l := liveAggForBench(t)
	res := agg.NewResult(8)
	q := agg.Query{Op: agg.Sum, Lo: 0.2, Hi: 0.9}
	snap, _ := l.Snapshot()
	res = snap.Exact(res, q)
	if n := testing.AllocsPerRun(100, func() {
		snap, _ := l.Snapshot()
		res = snap.Exact(res, q)
	}); n != 0 {
		t.Fatalf("a memo hit allocates %v per op, want 0", n)
	}
	hits := l.Stats().ExactMemoHits
	misses := 0
	if n := testing.AllocsPerRun(len(l.exact.keys)+100, func() {
		misses++
		snap, _ := l.Snapshot()
		res = snap.Exact(res, agg.Query{Op: agg.Sum, Lo: -float64(misses), Hi: 0.9})
	}); n != 0 {
		t.Fatalf("a memo miss allocates %v per op, want 0", n)
	}
	if h := l.Stats().ExactMemoHits; h != hits {
		t.Fatalf("%d distinct queries hit the memo %d times", misses, h-hits)
	}
	if l.exact.used != len(l.exact.keys) {
		t.Fatalf("%d distinct queries filled %d of %d slots", misses, l.exact.used, len(l.exact.keys))
	}
	snap.Exact(res, q)
	if h := l.Stats().ExactMemoHits; h != hits+1 {
		t.Fatal("the first answer left the full memo")
	}
}

// TestLevelMemoDoesNotAllocate is the level memo's twin of
// TestExactMemoDoesNotAllocate: 0 allocations on a hit, on a miss that
// runs the synopsis pass and stores its answer, and on a miss into a
// full memo.
func TestLevelMemoDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse")
	}
	l := liveAggForBench(t)
	res := agg.NewResult(8)
	q := agg.Query{Op: agg.Sum, Lo: 0.2, Hi: 0.9}
	snap, _ := l.Snapshot()
	res = snap.QueryLevel(res, q, 1)
	if n := testing.AllocsPerRun(100, func() {
		snap, _ := l.Snapshot()
		res = snap.QueryLevel(res, q, 1)
	}); n != 0 {
		t.Fatalf("a level memo hit allocates %v per op, want 0", n)
	}
	hits := l.Stats().LevelMemoHits
	free := len(l.levels.keys) - l.levels.used
	misses := 0
	miss := func() {
		misses++
		snap, _ := l.Snapshot()
		res = snap.QueryLevel(res, agg.Query{Op: agg.Sum, Lo: -float64(misses), Hi: 0.9}, 1)
	}
	// AllocsPerRun's warm-up run is a miss too: free-1 runs fill the rest.
	if n := testing.AllocsPerRun(free-1, miss); n != 0 {
		t.Fatalf("a level memo miss that stores allocates %v per op, want 0", n)
	}
	if l.levels.used != len(l.levels.keys) {
		t.Fatalf("%d distinct queries filled %d of %d slots", misses, l.levels.used, len(l.levels.keys))
	}
	if n := testing.AllocsPerRun(100, miss); n != 0 {
		t.Fatalf("a level memo miss into a full memo allocates %v per op, want 0", n)
	}
	if h := l.Stats().LevelMemoHits; h != hits {
		t.Fatalf("%d distinct queries hit the level memo %d times", misses, h-hits)
	}
}
