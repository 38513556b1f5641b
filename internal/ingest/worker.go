package ingest

import (
	"sync"
	"time"
)

// WorkerOptions configures a merge worker.
type WorkerOptions struct {
	// Interval is the publish cadence (default 5ms): how long an append
	// can stay invisible, i.e. the freshness-lag budget.
	Interval time.Duration
	// CompactEvery compacts instead of publishing every Nth tick
	// (default 0: never auto-compact; the owner calls Compact itself).
	CompactEvery int
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Interval <= 0 {
		o.Interval = 5 * time.Millisecond
	}
	return o
}

// WorkerStats is a snapshot of one worker's activity.
type WorkerStats struct {
	Publishes   uint64        // epoch swaps that exposed a new delta
	Compactions uint64        // epoch swaps that rebuilt the base
	Published   uint64        // items made visible across all swaps
	MaxLag      time.Duration // worst freshness lag observed at a swap
	CompactErrs uint64        // failed compactions (base kept serving)
}

// Worker is the periodic merge worker of one live aggregation shard:
// every tick it publishes the staged delta (or, on the compaction
// cadence, folds everything into a new base) and counts what it moved.
// A failed compaction is counted and the previous base keeps serving —
// ingest degrades to a growing delta, never to an outage.
type Worker struct {
	store *AggLive
	opts  WorkerOptions

	mu    sync.Mutex
	stats WorkerStats

	quit chan struct{}
	done chan struct{}
}

// NewWorker starts a merge worker over a live aggregation shard.
func NewWorker(s *AggLive, opts WorkerOptions) *Worker {
	w := &Worker{store: s, opts: opts.withDefaults(), quit: make(chan struct{}), done: make(chan struct{})}
	go w.loop()
	return w
}

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Close stops the worker after the in-progress tick, publishing any
// still-staged delta first so nothing accepted is lost to invisibility.
func (w *Worker) Close() {
	close(w.quit)
	<-w.done
}

func (w *Worker) loop() {
	defer close(w.done)
	tick := time.NewTicker(w.opts.Interval)
	defer tick.Stop()
	n := 0
	for {
		select {
		case <-w.quit:
			w.tick(false) // final drain
			return
		case <-tick.C:
		}
		n++
		compact := w.opts.CompactEvery > 0 && n%w.opts.CompactEvery == 0
		w.tick(compact)
	}
}

// tick runs one publish-or-compact step and counts what it moved.
func (w *Worker) tick(compact bool) {
	var moved int
	var lag time.Duration
	var err error
	if compact {
		_, moved, lag, err = w.store.Compact()
	} else {
		_, moved, lag = w.store.PublishDelta()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case err != nil:
		w.stats.CompactErrs++
		return
	case moved == 0:
		return
	case compact:
		w.stats.Compactions++
	default:
		w.stats.Publishes++
	}
	w.stats.Published += uint64(moved)
	w.stats.MaxLag = max(w.stats.MaxLag, lag)
}
