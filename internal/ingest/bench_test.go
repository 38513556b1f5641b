package ingest

import (
	"testing"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/stats"
)

// liveAggForBench builds a live shard with a compacted base plus a
// published (unmerged) delta — the steady-state shape of the read path.
func liveAggForBench(tb testing.TB) *AggLive {
	tb.Helper()
	rng := stats.NewRNG(0xbe7c4)
	l := NewAggLive(8, agg.Config{Rates: []float64{0.05, 0.2}, MinSample: 2, Seed: 1})
	keys := make([]int32, 4096)
	vals := make([]float64, len(keys))
	for i := range keys {
		keys[i] = int32(rng.Intn(8))
		vals[i] = rng.Float64()
	}
	if _, err := l.Append(keys, vals); err != nil {
		tb.Fatal(err)
	}
	if _, _, _, err := l.Compact(); err != nil {
		tb.Fatal(err)
	}
	if _, err := l.Append(keys[:256], vals[:256]); err != nil {
		tb.Fatal(err)
	}
	l.PublishDelta()
	return l
}

// BenchmarkAggSnapshotQueryLevel measures the live-snapshot read path:
// acquire the epoch, answer from the base ladder, fold the delta. The
// CI alloc guard pins this at 0 allocs/op.
func BenchmarkAggSnapshotQueryLevel(b *testing.B) {
	l := liveAggForBench(b)
	q := agg.Query{Op: agg.Sum, Lo: 0.2, Hi: 0.9}
	res := agg.NewResult(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, _ := l.Snapshot()
		res = snap.QueryLevel(res, q, 1)
	}
}

// TestAggSnapshotQueryZeroAlloc asserts the live read paths — a ladder
// level and the exact scan — allocate nothing once the engine pools are
// warm: appends and epoch swaps must never put allocation back on the
// query path.
func TestAggSnapshotQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse")
	}
	l := liveAggForBench(t)
	q := agg.Query{Op: agg.Sum, Lo: 0.2, Hi: 0.9}
	res := agg.NewResult(8)
	// AllocsPerRun's warm-up invocation primes the engine pool.
	if n := testing.AllocsPerRun(100, func() {
		snap, _ := l.Snapshot()
		res = snap.QueryLevel(res, q, 1)
	}); n != 0 {
		t.Fatalf("live-snapshot query allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		snap, _ := l.Snapshot()
		res = snap.Exact(res, q)
	}); n != 0 {
		t.Fatalf("live-snapshot exact scan allocates %v per op, want 0", n)
	}
}
