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

// TestExactMemoSize pins the memo's fixed budget: 192 answers at 48
// group keys, and none at all for a domain too wide for one answer,
// which then answers by scanning.
func TestExactMemoSize(t *testing.T) {
	if n := len(NewAggLive(48, agg.Config{Rates: []float64{0.2}}).memo.keys); n != 192 {
		t.Fatalf("48-key shard memoizes %d answers, want 192", n)
	}
	wide := memoBudget/16 + 1
	l := NewAggLive(wide, agg.Config{Rates: []float64{0.2}, MinSample: 2, Seed: 4})
	if n := len(l.memo.keys); n != 0 {
		t.Fatalf("%d-key shard memoizes %d answers, want 0", wide, n)
	}
	rng := stats.NewRNG(0x51ce)
	appendRandom(t, l, rng, 500)
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, _ := l.Snapshot()
	res, want := agg.NewResult(wide), agg.NewResult(wide)
	for range 2 {
		if err := sameBits(snap.Exact(res, oddQueries[0]), memoless(want, snap, oddQueries[0])); err != nil {
			t.Fatal(err)
		}
	}
	if h := l.Stats().ExactMemoHits; h != 0 {
		t.Fatalf("a shard without memo slots counted %d hits", h)
	}
}

// TestExactMemoDoesNotAllocate asserts both memo paths allocate
// nothing: a hit copies into the caller's result, and a miss scans into
// it and stores into a slot allocated with the shard, through every
// slot and past them into replacement.
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
	if n := testing.AllocsPerRun(len(l.memo.keys)+100, func() {
		misses++
		snap, _ := l.Snapshot()
		res = snap.Exact(res, agg.Query{Op: agg.Sum, Lo: -float64(misses), Hi: 0.9})
	}); n != 0 {
		t.Fatalf("a memo miss allocates %v per op, want 0", n)
	}
	if h := l.Stats().ExactMemoHits; h != hits {
		t.Fatalf("%d distinct queries hit the memo %d times", misses, h-hits)
	}
}
