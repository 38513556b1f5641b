package rescache

import "time"

// refreshQueue bounds the pending-refresh queue. A full queue drops the
// candidate; the next hit re-enqueues it.
const refreshQueue = 256

// RefreshFunc recomputes one cached answer at full accuracy. It
// receives the entry's key and the payload Store recorded for it (the
// canonical request), and returns the upgraded value with its accuracy
// bound; ok = false means the recomputation was not possible right now
// (shed by admission, data gone) and the entry is left as is — its next
// hit re-enqueues it.
type RefreshFunc func(key uint64, payload interface{}) (value interface{}, accuracy float64, ok bool)

// SetRefresh installs the background refresh-to-exact worker: hits on
// entries whose accuracy is below Config.RefreshBelow enqueue the key,
// and a single low-priority worker drains the queue at
// Config.RefreshInterval pace, overwriting each entry with fn's
// upgraded answer — the paper's "coarse first, refine later" applied
// to reuse. gate (optional) is consulted before each recomputation;
// returning false defers the key (it is requeued), so refresh yields
// while the service is overloaded and catches up when load drops.
//
// SetRefresh must be called at most once, before the cache serves
// traffic; Close stops the worker.
func (c *Cache) SetRefresh(fn RefreshFunc, gate func() bool) {
	if fn == nil {
		return
	}
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	if c.started {
		panic("rescache: SetRefresh called twice")
	}
	c.refreshFn = fn
	c.gate = gate
	c.refreshCh = make(chan uint64, refreshQueue)
	c.workerDone = make(chan struct{})
	c.started = true
	go c.refreshLoop()
}

// refreshEnabled reports whether the refresh worker is installed. The
// channel field is written once under refreshMu before any traffic, so
// the unlocked read on the hit path is safe.
func (c *Cache) refreshEnabled() bool { return c.refreshCh != nil }

// refreshLoop is the low-priority worker: one refresh attempt per
// RefreshInterval, deferring while the gate is closed.
func (c *Cache) refreshLoop() {
	defer close(c.workerDone)
	for {
		select {
		case <-c.quit:
			return
		case key := <-c.refreshCh:
			c.refreshOne(key)
		}
		select {
		case <-c.quit:
			return
		case <-time.After(c.cfg.RefreshInterval):
		}
	}
}

// RewarmHot recomputes up to max of the hottest entries through the
// refresh function, in recency order. Unlike the background refresh —
// which only upgrades entries that are still current — re-warming
// exists for the moment right after an epoch bump: the hot entries
// just went stale, and recomputing them before their next lookup turns
// a burst of post-swap misses back into hits. Each recomputation
// stamps the epoch captured at its own compute start, so a swap that
// lands mid-recompute leaves the entry born stale (and the next
// RewarmHot, typically fired by that swap's hook, redoes it) rather
// than resurrecting pre-swap data as current. Returns the number of
// entries re-warmed.
//
// RewarmHot runs on the caller's goroutine; callers pacing it off an
// epoch-swap hook get natural batching (one pass per swap). It is a
// no-op until SetRefresh installs a refresh function.
func (c *Cache) RewarmHot(max int) int {
	c.refreshMu.Lock()
	fn, gate := c.refreshFn, c.gate
	c.refreshMu.Unlock()
	if fn == nil || max <= 0 {
		return 0
	}
	type job struct {
		key     uint64
		payload interface{}
	}
	// Collect {key, payload} under the lock, hottest first: the payload
	// travels with the job because the entry itself may be lazily
	// discarded (it is stale) before the recompute runs.
	jobs := make([]job, 0, max)
	c.mu.Lock()
	for i := c.head; i != nilIdx && len(jobs) < max; i = c.slab[i].next {
		if e := &c.slab[i]; e.payload != nil {
			jobs = append(jobs, job{key: e.key, payload: e.payload})
		}
	}
	c.mu.Unlock()
	n := 0
	for _, j := range jobs {
		if gate != nil && !gate() {
			break
		}
		if c.recompute(fn, j.key, j.payload) {
			c.rewarms.Inc()
			n++
		}
	}
	return n
}

// recompute runs the refresh function for one entry and stores what it
// returns under the epoch captured before it ran, not at store time: if
// the data is updated mid-recompute, the upgraded entry is born stale
// instead of resurrecting a pre-update answer as current.
func (c *Cache) recompute(fn RefreshFunc, key uint64, payload interface{}) bool {
	epoch := c.Epoch()
	v, acc, ok := fn(key, payload)
	if ok {
		c.StoreAt(key, payload, v, acc, epoch)
	}
	return ok
}

func (c *Cache) refreshOne(key uint64) {
	if c.gate != nil && !c.gate() {
		// Overloaded: push the key back and let the pacing sleep retry
		// later. A full queue drops it; the next hit re-enqueues.
		select {
		case c.refreshCh <- key:
		default:
			c.clearQueued(key)
		}
		return
	}
	// A missing payload: evicted, stale, or payload-free since it was
	// queued.
	if payload, ok := c.payloadOf(key); ok && c.recompute(c.refreshFn, key, payload) {
		c.refreshes.Inc()
	} else {
		c.clearQueued(key)
	}
}
