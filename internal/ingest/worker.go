package ingest

import (
	"sync"
	"time"

	"accuracytrader/internal/obs"
)

// WorkerOptions configures a merge worker.
type WorkerOptions struct {
	// Interval is the publish cadence (default 5ms): how long an append
	// can stay invisible, i.e. the freshness-lag budget.
	Interval time.Duration
	// CompactEvery compacts instead of publishing every Nth tick
	// (default 0: never auto-compact; the owner calls Compact itself).
	CompactEvery int
	// OnSwap, when set, runs after every tick that swapped the epoch —
	// the result cache's invalidation hook (epoch bump + re-warm).
	OnSwap func(epoch uint64)
	// Name labels this store's metrics (e.g. "agg").
	Name string
	// Metrics, when set, publishes ingest counters and gauges:
	// ingest_publishes_total, ingest_compactions_total,
	// ingest_published_total (items), ingest_compact_errors_total,
	// ingest_epoch and ingest_freshness_lag_ms, all labelled
	// {store=Name}.
	Metrics *obs.Registry
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Interval <= 0 {
		o.Interval = 5 * time.Millisecond
	}
	if o.Name == "" {
		o.Name = "store"
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
// cadence, folds everything into a new base), fires the swap hook, and
// feeds the obs plane. A failed compaction is counted and the previous base keeps
// serving — ingest degrades to a growing delta, never to an outage.
type Worker struct {
	store *AggLive
	opts  WorkerOptions

	mu    sync.Mutex
	stats WorkerStats

	quit chan struct{}
	done chan struct{}

	mPublishes   *obs.Counter
	mCompactions *obs.Counter
	mPublished   *obs.Counter
	mCompactErrs *obs.Counter
	gLag         *obs.Gauge
}

// NewWorker starts a merge worker over a live aggregation shard.
func NewWorker(s *AggLive, opts WorkerOptions) *Worker {
	opts = opts.withDefaults()
	w := &Worker{store: s, opts: opts, quit: make(chan struct{}), done: make(chan struct{})}
	if m := opts.Metrics; m != nil {
		// obs.Labels escapes the operator-supplied store name, so a
		// quote or newline in it cannot corrupt the exposition.
		label := obs.Labels("store", opts.Name)
		w.mPublishes = m.Counter("ingest_publishes_total" + label)
		w.mCompactions = m.Counter("ingest_compactions_total" + label)
		w.mPublished = m.Counter("ingest_published_total" + label)
		w.mCompactErrs = m.Counter("ingest_compact_errors_total" + label)
		w.gLag = m.Gauge("ingest_freshness_lag_ms" + label)
		m.GaugeFunc("ingest_epoch"+label, func() float64 { return float64(s.Epoch()) })
	}
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

// tick runs one publish-or-compact step and fires the swap hook when
// the epoch moved.
func (w *Worker) tick(compact bool) {
	var epoch uint64
	var moved int
	var lag time.Duration
	if compact {
		ep, folded, l, err := w.store.Compact()
		if err != nil {
			w.mu.Lock()
			w.stats.CompactErrs++
			w.mu.Unlock()
			if w.mCompactErrs != nil {
				w.mCompactErrs.Inc()
			}
			return
		}
		epoch, moved, lag = ep, folded, l
		if moved > 0 {
			w.mu.Lock()
			w.stats.Compactions++
			w.mu.Unlock()
			if w.mCompactions != nil {
				w.mCompactions.Inc()
			}
		}
	} else {
		epoch, moved, lag = w.store.PublishDelta()
		if moved > 0 {
			w.mu.Lock()
			w.stats.Publishes++
			w.mu.Unlock()
			if w.mPublishes != nil {
				w.mPublishes.Inc()
			}
		}
	}
	if moved == 0 {
		return
	}
	w.mu.Lock()
	w.stats.Published += uint64(moved)
	if lag > w.stats.MaxLag {
		w.stats.MaxLag = lag
	}
	w.mu.Unlock()
	if w.mPublished != nil {
		w.mPublished.Add(int64(moved))
	}
	if w.gLag != nil {
		w.gLag.Set(float64(lag) / float64(time.Millisecond))
	}
	if w.opts.OnSwap != nil {
		w.opts.OnSwap(epoch)
	}
}
