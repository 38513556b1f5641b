package ingest

import (
	"math"
	"sync"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/stats"
)

// TestAggLiveConcurrent hammers a live aggregation shard with
// concurrent appenders, a fast merge worker (publishing and
// compacting), and lock-free queriers, under the race detector.
// Two linearizability properties are pinned:
//
//   - no torn snapshots: the exact full-range COUNT over any acquired
//     snapshot equals that snapshot's row count — a batch is visible
//     in full or not at all, never partially;
//   - epoch pinning: a query that re-runs on a snapshot it acquired
//     before any number of swaps gets bit-identical answers;
//   - memoized answers: repeated exact reads, racing the compactions
//     that move the shard's memo to a new base, answer bit for bit as a
//     memo-less scan of the same snapshot.
func TestAggLiveConcurrent(t *testing.T) {
	const (
		appenders   = 4
		batches     = 50
		queriers    = 4
		memoReaders = 2
	)
	cfg := agg.Config{Rates: []float64{0.1, 0.3}, MinSample: 2, Seed: 42}
	l := NewAggLive(5, cfg)
	w := NewWorker(l, WorkerOptions{Interval: time.Millisecond, CompactEvery: 4, Name: "agg"})

	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(id) + 1)
			for b := 0; b < batches; b++ {
				n := 1 + rng.Intn(20)
				keys := make([]int32, n)
				vals := make([]float64, n)
				for i := range keys {
					keys[i] = int32(rng.Intn(5))
					vals[i] = rng.Float64()
				}
				if _, err := l.Append(keys, vals); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}

	full := agg.Query{Op: agg.Count, Lo: math.Inf(-1), Hi: math.Inf(1)}
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for qi := 0; qi < queriers; qi++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			res := agg.NewResult(5)
			again := agg.NewResult(5)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, ep := l.Snapshot()
				res = snap.Exact(res, full)
				total := 0.0
				for _, c := range res.Cnt {
					total += c
				}
				if total != float64(snap.Rows()) {
					t.Errorf("epoch %d: exact count %v over %d visible rows (torn snapshot)", ep, total, snap.Rows())
					return
				}
				// Let swaps happen, then re-query the pinned snapshot.
				time.Sleep(2 * time.Millisecond)
				again = snap.Exact(again, full)
				for k := range res.Cnt {
					if res.Cnt[k] != again.Cnt[k] || res.Sum[k] != again.Sum[k] {
						t.Errorf("epoch %d key %d: pinned snapshot drifted", ep, k)
						return
					}
				}
			}
		}()
	}

	for r := 0; r < memoReaders; r++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			res, want := agg.NewResult(5), agg.NewResult(5)
			for {
				for _, q := range oddQueries {
					for range 2 {
						snap, ep := l.Snapshot()
						if err := sameBits(snap.Exact(res, q), memoless(want, snap, q)); err != nil {
							t.Errorf("epoch %d %+v: memoized exact read: %v", ep, q, err)
							return
						}
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	wg.Wait()
	// The appenders are done: keep compacting under the memo readers,
	// and leave the last row staged for the worker's drain.
	rng := stats.NewRNG(0xc0ac7)
	for round := 0; round < 20; round++ {
		if _, _, _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		keys, vals := []int32{int32(rng.Intn(5))}, []float64{rng.Float64()}
		if _, err := l.Append(keys, vals); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	qwg.Wait()
	w.Close()

	// After the worker's final drain, everything appended is visible.
	snap, _ := l.Snapshot()
	if want := appenders * batches; snap.Rows() == 0 || l.Stats().StagedRows != 0 {
		t.Fatalf("drain left %d staged rows (%d batches appended)", l.Stats().StagedRows, want)
	}
	st := w.Stats()
	if st.Publishes+st.Compactions == 0 {
		t.Fatal("worker never swapped an epoch")
	}
}
