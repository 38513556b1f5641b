package ingest

import (
	"math"
	"slices"
	"sync"
	"testing"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/csr"
	"accuracytrader/internal/stats"
)

// arrivalAggLive is the live shard as it was before the base moved into
// synopsis order, kept as the reference the new layout is held to: one
// shared append-only log in arrival order, every base a
// capacity-clamped prefix of it, and a per-compaction row-order
// permutation handing the synopsis its stratum-major order. Compact is
// kept verbatim; the bookkeeping the answers do not depend on (stats,
// freshness lag) is dropped.
type arrivalAggLive struct {
	numKeys int
	cfg     agg.Config
	seed    uint64

	keys      []int32
	vals      []float64
	based     int
	published int
	base      *agg.Component
	strata    csr.Store[int32]
	pending   csr.Store[int32]
	scratch   []int32

	snaps Epochs[AggSnapshot]
}

func newArrivalAggLive(numKeys int, cfg agg.Config) *arrivalAggLive {
	l := &arrivalAggLive{numKeys: numKeys, cfg: cfg, seed: cfg.Seed ^ 0x1b9a5e11d0e57a1e}
	for s := 0; s < numKeys; s++ {
		l.strata.AddRow(nil)
		l.pending.AddRow(nil)
	}
	l.snaps.Publish(&AggSnapshot{numKeys: numKeys})
	return l
}

func (l *arrivalAggLive) Append(keys []int32, vals []float64) {
	for i, k := range keys {
		l.pending.AppendElem(int(k), int32(len(l.keys)))
		l.keys = append(l.keys, k)
		l.vals = append(l.vals, vals[i])
	}
}

func (l *arrivalAggLive) publishLocked(n int) {
	l.snaps.Publish(&AggSnapshot{
		comp:      l.base,
		deltaKeys: l.keys[l.based:n:n],
		deltaVals: l.vals[l.based:n:n],
		numKeys:   l.numKeys,
	})
	l.published = n
}

func (l *arrivalAggLive) PublishDelta() {
	if n := len(l.keys); n > l.published {
		l.publishLocked(n)
	}
}

func (l *arrivalAggLive) Compact() error {
	n := len(l.keys)
	if n == l.based {
		return nil
	}
	for s := 0; s < l.numKeys; s++ {
		seg := l.pending.Row(s)
		if len(seg) == 0 {
			continue
		}
		slices.SortFunc(seg, func(a, b int32) int {
			if priorityLess(l.seed, a, b) {
				return -1
			}
			return 1
		})
		l.scratch = mergeIDsByPriority(l.scratch[:0], l.seed, l.strata.Row(s), seg)
		l.strata.SetRow(s, l.scratch)
		l.pending.SetRow(s, nil)
	}
	rows := make([]int32, n)
	off := make([]int32, l.numKeys+1)
	pos := 0
	for s := 0; s < l.numKeys; s++ {
		off[s] = int32(pos)
		pos += copy(rows[pos:], l.strata.Row(s))
	}
	off[l.numKeys] = int32(pos)
	t := agg.TableFromColumns(l.keys[:n:n], l.vals[:n:n], l.numKeys)
	syn, err := agg.SynopsisFromOrder(t, l.cfg, rows, off)
	if err != nil {
		return err
	}
	l.base = &agg.Component{T: t, Syn: syn}
	l.based = n
	l.publishLocked(n)
	return nil
}

// priorityLess orders row ids by (priority, row).
func priorityLess(seed uint64, a, b int32) bool {
	return before(Priority(seed, a), a, Priority(seed, b), b)
}

// mergeIDsByPriority merges two (priority,row)-ordered id lists into dst.
func mergeIDsByPriority(dst []int32, seed uint64, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if priorityLess(seed, a[i], b[j]) {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// sameAnswers checks two snapshots answer the exact query and every
// ladder level with == on every float.
func sameAnswers(t *testing.T, a, b *AggSnapshot, q agg.Query, levels int, ctx string) {
	t.Helper()
	ra, rb := agg.NewResult(a.NumKeys()), agg.NewResult(b.NumKeys())
	if err := sameAggResult(a.Exact(ra, q), b.Exact(rb, q)); err != nil {
		t.Fatalf("%s %v exact: %v", ctx, q, err)
	}
	for lev := 0; lev < levels; lev++ {
		if err := sameAggResult(a.QueryLevel(ra, q, lev), b.QueryLevel(rb, q, lev)); err != nil {
			t.Fatalf("%s %v level %d: %v", ctx, q, lev, err)
		}
	}
}

// TestAggLayoutIndependent holds the synopsis-ordered base to the
// arrival-ordered one it replaced: over random append / publish /
// compact interleavings driven in lockstep, every epoch's snapshots
// answer the exact query and every ladder level identically, float for
// float — the layout moves where values live, never what a query sums
// or in which order.
func TestAggLayoutIndependent(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := stats.NewRNG(0x1a70 + uint64(trial)*0x9e37)
		numKeys := 2 + rng.Intn(6)
		cfg := agg.Config{Rates: []float64{0.1, 0.3, 0.6}, MinSample: 2, Seed: rng.Uint64()}
		live, ref := NewAggLive(numKeys, cfg), newArrivalAggLive(numKeys, cfg)
		queries := append(slices.Clone(aggQueries), agg.Query{Op: agg.Sum, Lo: -0.5, Hi: 0.5})
		for step := 0; step < 50; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				n := 1 + rng.Intn(40)
				keys := make([]int32, n)
				vals := make([]float64, n)
				for i := range keys {
					keys[i] = int32(rng.Intn(numKeys))
					vals[i] = rng.Norm(0.3, 0.6)
				}
				if _, err := live.Append(keys, vals); err != nil {
					t.Fatal(err)
				}
				ref.Append(keys, vals)
			case 2:
				live.PublishDelta()
				ref.PublishDelta()
			case 3:
				if _, _, _, err := live.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := ref.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			ls, lep := live.Snapshot()
			rs, rep := ref.snaps.Acquire()
			if lep != rep || ls.Rows() != rs.Rows() || ls.DeltaRows() != rs.DeltaRows() {
				t.Fatalf("trial %d step %d: epoch %d rows %d/%d vs reference %d rows %d/%d",
					trial, step, lep, ls.Rows(), ls.DeltaRows(), rep, rs.Rows(), rs.DeltaRows())
			}
			for _, q := range queries {
				sameAnswers(t, ls, rs, q, len(cfg.Rates), "layout")
			}
		}
	}
}

// TestAggSnapshotSurvivesCompaction pins what the fresh-tail rule buys:
// a snapshot holding a published delta answers bit-identically after
// its rows are compacted away and after the next tail is appended,
// published and compacted too — while readers query it concurrently
// (run under -race, this is the proof nothing it holds is rewritten).
func TestAggSnapshotSurvivesCompaction(t *testing.T) {
	cfg := agg.Config{Rates: []float64{0.1, 0.3}, MinSample: 2, Seed: 9}
	l := NewAggLive(4, cfg)
	rng := stats.NewRNG(0x5a7e)
	batch := func(n int) ([]int32, []float64) {
		keys := make([]int32, n)
		vals := make([]float64, n)
		for i := range keys {
			keys[i] = int32(rng.Intn(4))
			vals[i] = rng.Float64()
		}
		return keys, vals
	}
	for _, n := range []int{300, 120} {
		keys, vals := batch(n)
		if _, err := l.Append(keys, vals); err != nil {
			t.Fatal(err)
		}
		if n == 300 {
			if _, _, _, err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.PublishDelta()
	old, _ := l.Snapshot()
	if old.DeltaRows() != 120 {
		t.Fatalf("held snapshot has %d delta rows, want 120", old.DeltaRows())
	}
	q := aggQueries[1]
	levels := len(cfg.Rates)
	want := make([]agg.Result, levels+1)
	want[levels] = old.Exact(agg.NewResult(4), q)
	for lev := 0; lev < levels; lev++ {
		want[lev] = old.QueryLevel(agg.NewResult(4), q, lev)
	}
	check := func(res agg.Result) error {
		for lev := 0; lev < levels; lev++ {
			if err := sameAggResult(old.QueryLevel(res, q, lev), want[lev]); err != nil {
				return err
			}
		}
		return sameAggResult(old.Exact(res, q), want[levels])
	}

	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := agg.NewResult(4)
			for {
				if err := check(res); err != nil {
					errs <- err
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		if _, _, _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		keys, vals := batch(50 + rng.Intn(100))
		if _, err := l.Append(keys, vals); err != nil {
			t.Fatal(err)
		}
		l.PublishDelta()
	}
	if _, _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("held snapshot drifted across compactions: %v", err)
	}
	if err := check(agg.NewResult(4)); err != nil {
		t.Fatalf("held snapshot drifted across compactions: %v", err)
	}
}

// TestAggCompactEmptiesTail checks the in-package invariants of the
// synopsis-ordered layout: after a compaction the tail holds no
// compacted row and the reservoir covers every base row once, the base
// column is stratum-major, and AggStats keeps its meaning throughout.
func TestAggCompactEmptiesTail(t *testing.T) {
	l := NewAggLive(3, agg.Config{Rates: []float64{0.2}, MinSample: 2, Seed: 3})
	wantStats := func(rows, base, staged int) {
		t.Helper()
		st := l.Stats()
		if st.Rows != rows || st.BaseRows != base || st.StagedRows != staged {
			t.Fatalf("stats rows/base/staged %d/%d/%d, want %d/%d/%d",
				st.Rows, st.BaseRows, st.StagedRows, rows, base, staged)
		}
	}
	keys := []int32{2, 0, 1, 0, 2, 2, 1, 0}
	vals := []float64{8, 1, 5, 2, 9, 7, 6, 3}
	if _, err := l.Append(keys, vals); err != nil {
		t.Fatal(err)
	}
	wantStats(8, 0, 8)
	l.PublishDelta()
	wantStats(8, 0, 0)
	if _, err := l.Append(keys[:3], vals[:3]); err != nil {
		t.Fatal(err)
	}
	wantStats(11, 0, 3)
	if _, folded, _, err := l.Compact(); err != nil || folded != 11 {
		t.Fatalf("compact folded %d rows (%v), want 11", folded, err)
	}
	wantStats(11, 11, 0)
	if len(l.keys) != 0 || len(l.vals) != 0 {
		t.Fatalf("tail keeps %d compacted rows", len(l.keys))
	}
	if l.based != 11 || len(l.strata) != 11 {
		t.Fatalf("base holds %d rows, reservoir %d ids after compacting 11 rows", l.based, len(l.strata))
	}
	allKeys, allVals := append(keys, keys[:3]...), append(vals, vals[:3]...)
	base := l.base.T
	seen := make([]bool, 11)
	for i := 0; i < base.NumRows(); i++ {
		if i > 0 && base.Key(i) < base.Key(i-1) {
			t.Fatalf("base row %d key %d after key %d: not stratum-major", i, base.Key(i), base.Key(i-1))
		}
		id := l.strata[i]
		if seen[id] {
			t.Fatalf("row %d twice in the reservoir", id)
		}
		seen[id] = true
		k, v := allKeys[id], allVals[id]
		if base.Key(i) != k || base.Value(i) != v {
			t.Fatalf("base row %d holds (%d,%v), row %d is (%d,%v)", i, base.Key(i), base.Value(i), id, k, v)
		}
	}
	if _, err := l.Append(keys[:2], vals[:2]); err != nil {
		t.Fatal(err)
	}
	wantStats(13, 11, 2)
	// Tail position j is row based+j: row 11 has key 2, row 12 key 0.
	if l.based != 11 || !slices.Equal(l.keys, keys[:2]) || !slices.Equal(l.vals, vals[:2]) {
		t.Fatalf("tail after the base of %d rows holds keys %v vals %v, want %v %v",
			l.based, l.keys, l.vals, keys[:2], vals[:2])
	}
	snap, _ := l.Snapshot()
	if snap.DeltaRows() != 0 || snap.Rows() != 11 {
		t.Fatalf("snapshot exposes %d+%d rows before the publish", snap.Rows(), snap.DeltaRows())
	}
	res := snap.Exact(agg.NewResult(3), agg.Query{Op: agg.Sum, Lo: math.Inf(-1), Hi: math.Inf(1)})
	if res.Sum[0] != 1+2+3+1 || res.Sum[1] != 5+6+5 || res.Sum[2] != 8+9+7+8 {
		t.Fatalf("exact sums %v", res.Sum)
	}
}

// fuzzFloats are the values and bounds FuzzAggLiveDifferential draws
// from: signed zeros, infinities, NaN, the extremes and a few plain
// values that split the data.
var fuzzFloats = [16]float64{
	0, math.Copysign(0, -1), 0.25, 0.5, 0.75, 1, -1, -0.5,
	math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, math.MaxFloat64, -math.MaxFloat64, 2, 1e-3,
}

// FuzzAggLiveDifferential drives a live shard and the memo-less arrival
// reference in lockstep through the appends, publishes, compactions,
// exact queries and level queries the fuzz bytes spell. Each query is
// asked twice so the second can come from a memo, and a level query is
// asked at both of the ladder's levels, so a key that drops the level
// serves one level's answer for the other: every answer must equal the
// reference's bit for bit.
func FuzzAggLiveDifferential(f *testing.F) {
	f.Add([]byte{3, 7, 0, 5, 1, 2, 3, 4, 5, 6, 2, 3, 0, 1, 2, 3, 0, 1, 2, 1, 3, 0, 1, 2})
	f.Add([]byte{5, 1, 0, 15, 9, 8, 10, 1, 2, 11, 3, 0, 4, 12, 13, 2, 3, 1, 10, 2, 0, 3, 4, 2, 3, 1, 10, 2, 3, 2, 1, 0})
	f.Add([]byte{0, 0, 0, 3, 0, 10, 1, 8, 2, 3, 2, 9, 8, 3, 1, 1, 0, 0, 0, 1, 3, 1, 1, 0})
	// Two sums that differ only in Hi, over a base and then a delta.
	f.Add([]byte{2, 9, 0, 7, 0, 2, 1, 3, 2, 4, 0, 15, 1, 2, 2, 3, 0, 4, 1, 0, 2, 3, 0, 0, 3, 3, 0, 0, 5, 0, 0, 1, 4, 1, 3, 0, 0, 5, 3, 0, 0, 3})
	// Level queries at both levels over a base, again after a delta
	// publish, and over the next base, which a compaction without a
	// publish before it built; then the same with signed-zero, NaN and
	// infinite bounds.
	f.Add([]byte{2, 9, 0, 15, 0, 2, 1, 3, 2, 4, 0, 5, 1, 6, 2, 7, 0, 14, 1, 15, 2, 2, 0, 3, 1, 4, 2, 5, 0, 6, 1, 7, 2, 1, 0, 0, 2, 4, 0, 9, 8, 0, 4, 1, 0, 5, 1, 0, 3, 0, 2, 1, 3, 2, 4, 0, 5, 1, 4, 0, 9, 8, 1, 3, 0, 9, 8, 0, 3, 1, 6, 2, 7, 0, 14, 1, 15, 2, 4, 0, 9, 8, 0, 3, 0, 9, 8})
	f.Add([]byte{2, 4, 0, 15, 0, 2, 1, 3, 2, 4, 0, 5, 1, 6, 2, 7, 0, 14, 1, 15, 2, 2, 0, 3, 1, 4, 2, 5, 0, 6, 1, 7, 2, 1, 0, 0, 0, 15, 0, 2, 1, 3, 2, 4, 0, 5, 1, 6, 2, 7, 0, 14, 1, 15, 2, 2, 0, 3, 1, 4, 2, 5, 0, 6, 1, 7, 2, 1, 0, 0, 2, 4, 1, 1, 3, 0, 4, 1, 0, 3, 1, 4, 2, 10, 5, 1, 4, 0, 2, 10, 0, 0, 1, 0, 2, 1, 3, 1, 4, 1, 1, 3, 1, 4, 2, 8, 9, 0, 2, 4, 1, 1, 3, 0, 4, 1, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		numKeys := 1 + next()%6
		cfg := agg.Config{Rates: []float64{0.2, 0.5}, MinSample: 2, Seed: uint64(next())}
		live, ref := NewAggLive(numKeys, cfg), newArrivalAggLive(numKeys, cfg)
		res, want := agg.NewResult(numKeys), agg.NewResult(numKeys)
		for len(data) > 0 {
			switch op := next() % 5; op {
			case 0:
				n := 1 + next()%16
				keys := make([]int32, n)
				vals := make([]float64, n)
				for i := range keys {
					keys[i] = int32(next() % numKeys)
					vals[i] = fuzzFloats[next()%len(fuzzFloats)]
				}
				if _, err := live.Append(keys, vals); err != nil {
					t.Fatal(err)
				}
				ref.Append(keys, vals)
			case 1:
				live.PublishDelta()
				ref.PublishDelta()
			case 2:
				if _, _, _, err := live.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := ref.Compact(); err != nil {
					t.Fatal(err)
				}
			case 3, 4:
				q := agg.Query{
					Op: agg.Op(next() % 3),
					Lo: fuzzFloats[next()%len(fuzzFloats)],
					Hi: fuzzFloats[next()%len(fuzzFloats)],
				}
				levels := []int{exactLevel}
				if op == 4 {
					first := next() % 2
					levels = []int{first, 1 - first}
				}
				ls, _ := live.Snapshot()
				rs, _ := ref.snaps.Acquire()
				for _, level := range levels {
					for range 2 {
						if level == exactLevel {
							res, want = ls.Exact(res, q), rs.Exact(want, q)
						} else {
							res, want = ls.QueryLevel(res, q, level), rs.QueryLevel(want, q, level)
						}
						if err := sameBits(res, want); err != nil {
							t.Fatalf("%d rows, %d in the delta, %+v at level %d: %v", ls.Rows(), ls.DeltaRows(), q, level, err)
						}
					}
				}
			}
		}
	})
}
