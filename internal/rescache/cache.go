package rescache

import (
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/cost"
	"accuracytrader/internal/obs"
)

// Config configures a Cache.
type Config struct {
	// Capacity bounds the entry count (default 4096); a store into a
	// full cache evicts the least recently used entry.
	Capacity int
	// BestEffortFloor is the accuracy floor applied to BestEffort-class
	// lookups when the service is idle (default 0.5); load loosens it
	// linearly to 0 at full load (SetLoad). Exact and Bounded floors are
	// fixed by the request and never pass through here.
	BestEffortFloor float64
	// RefreshBelow marks entries whose accuracy is below this value as
	// refresh candidates on every hit (default 1: anything inexact).
	// Only meaningful once SetRefresh installs a refresh function.
	RefreshBelow float64
	// RefreshInterval paces the low-priority refresh worker: at most
	// one refresh attempt per interval (default 25ms).
	RefreshInterval time.Duration
	// Metrics is the observability registry the cache's counters live in
	// (rescache_hits_total, rescache_misses_total, …). Nil uses a
	// private registry; Stats() is unaffected either way.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.BestEffortFloor <= 0 {
		c.BestEffortFloor = 0.5
	}
	if c.RefreshBelow <= 0 {
		c.RefreshBelow = 1
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = 25 * time.Millisecond
	}
	return c
}

// Stats are the cache's cumulative counters.
type Stats struct {
	Hits   int64 // lookups served from the cache
	Misses int64 // lookups that fell through (includes coalesced waiters)
	// Coalesced counts misses resolved by another caller's in-flight
	// computation instead of their own (Serve). Backend computations for
	// cached keys are therefore Misses - Coalesced.
	Coalesced    int64
	Stored       int64 // Store calls
	Evictions    int64 // entries displaced by the capacity bound
	Stale        int64 // lookups that hit an entry from an old epoch
	FloorRejects int64 // lookups whose entry's accuracy missed the floor
	Refreshes    int64 // entries upgraded by the refresh worker
	Rewarms      int64 // entries recomputed by RewarmHot after epoch bumps
	// SavedCPUNs and SavedScanned accumulate the fill cost of every hit
	// entry (Serve tags entries with what computing them cost):
	// the backend work the cache absorbed instead of the fan-out — the
	// cache's contribution in the same units the cost plane meters.
	SavedCPUNs   int64
	SavedScanned int64
}

// entry is one cached reply in the cache's slab. prev/next thread the
// intrusive LRU list (slab indices, -1 = none).
type entry struct {
	key     uint64
	value   interface{}
	payload interface{}
	acc     float64
	epoch   uint64
	fill    cost.Usage // what computing the entry cost (Serve)
	queued  bool       // a refresh for this key is pending
	prev    int32
	next    int32
}

const nilIdx = int32(-1)

// lru is the cache's one lock domain: an index map plus a preallocated
// entry slab threaded with an intrusive LRU list and a free list.
type lru struct {
	mu   sync.Mutex
	idx  map[uint64]int32
	slab []entry
	head int32 // most recently used
	tail int32 // least recently used
	free int32 // free-list head, threaded through next
}

func (s *lru) init(capacity int) {
	s.idx = make(map[uint64]int32, capacity)
	s.slab = make([]entry, capacity)
	s.head, s.tail = nilIdx, nilIdx
	for i := range s.slab {
		s.slab[i].next = int32(i) + 1
	}
	s.slab[capacity-1].next = nilIdx
	s.free = 0
}

// unlink removes slot i from the LRU list.
func (s *lru) unlink(i int32) {
	e := &s.slab[i]
	if e.prev != nilIdx {
		s.slab[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nilIdx {
		s.slab[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// pushFront links slot i as the most recently used.
func (s *lru) pushFront(i int32) {
	e := &s.slab[i]
	e.prev, e.next = nilIdx, s.head
	if s.head != nilIdx {
		s.slab[s.head].prev = i
	}
	s.head = i
	if s.tail == nilIdx {
		s.tail = i
	}
}

// toFront moves slot i to the front of the LRU list.
func (s *lru) toFront(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
}

// release returns slot i to the free list, dropping its references.
func (s *lru) release(i int32) {
	e := &s.slab[i]
	e.value, e.payload = nil, nil
	e.next = s.free
	s.free = i
}

// Cache is the accuracy-aware result cache. All methods are safe for
// concurrent use.
type Cache struct {
	lru
	cfg   Config
	epoch atomic.Uint64
	load  atomic.Uint64 // float64 bits of the current load in [0,1]

	fmu     sync.Mutex
	flights map[uint64]*flight

	refreshMu  sync.Mutex
	refreshFn  RefreshFunc
	gate       func() bool
	refreshCh  chan uint64
	quit       chan struct{}
	workerDone chan struct{}
	started    bool

	hits, misses, coalesced *obs.Counter
	stored, evictions       *obs.Counter
	stale, floorRejects     *obs.Counter
	refreshes, rewarms      *obs.Counter
	savedCPU, savedScanned  *obs.Counter
}

// New returns an empty cache.
func New(cfg Config) (*Cache, error) {
	cfg = cfg.withDefaults()
	if cfg.BestEffortFloor > 1 || cfg.RefreshBelow > 1 {
		return nil, fmt.Errorf("rescache: accuracy floors must be in [0,1], got BestEffortFloor=%g RefreshBelow=%g",
			cfg.BestEffortFloor, cfg.RefreshBelow)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Cache{
		cfg:          cfg,
		flights:      map[uint64]*flight{},
		quit:         make(chan struct{}),
		hits:         reg.Counter("rescache_hits_total"),
		misses:       reg.Counter("rescache_misses_total"),
		coalesced:    reg.Counter("rescache_coalesced_total"),
		stored:       reg.Counter("rescache_stored_total"),
		evictions:    reg.Counter("rescache_evictions_total"),
		stale:        reg.Counter("rescache_stale_total"),
		floorRejects: reg.Counter("rescache_floor_rejects_total"),
		refreshes:    reg.Counter("rescache_refreshes_total"),
		rewarms:      reg.Counter("rescache_rewarms_total"),
		savedCPU:     reg.Counter("rescache_saved_cpu_ns_total"),
		savedScanned: reg.Counter("rescache_saved_scanned_total"),
	}
	c.init(cfg.Capacity)
	reg.GaugeFunc("rescache_entries", func() float64 { return float64(c.Len()) })
	return c, nil
}

// keySeed randomizes Key per process: with an unkeyed hash a client of
// the networked front server could construct colliding canonical
// encodings offline and poison another request's cache slot; a
// process-random seed makes collisions unconstructible from outside.
// Keys are therefore not stable across restarts — irrelevant for an
// in-memory cache.
var keySeed = maphash.MakeSeed()

// Key hashes a canonical request encoding to a cache key.
func Key(b []byte) uint64 {
	return maphash.Bytes(keySeed, b)
}

// Epoch returns the current data-version epoch.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// BumpEpoch advances the data-version epoch: entries stored under
// earlier epochs become stale and are discarded lazily on their next
// lookup. Call it after a synopsis (or any backing-data) update.
func (c *Cache) BumpEpoch() { c.epoch.Add(1) }

// SetLoad feeds the degradation controller's smoothed load estimate in
// [0,1] to the cache. Load loosens the BestEffort accuracy floor to
// BestEffortFloor·(1 − load); it never touches Exact or Bounded floors.
func (c *Cache) SetLoad(load float64) {
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}
	c.load.Store(math.Float64bits(load))
}

// BestEffortFloor returns the load-adjusted accuracy floor for
// BestEffort-class lookups.
func (c *Cache) BestEffortFloor() float64 {
	return c.cfg.BestEffortFloor * (1 - math.Float64frombits(c.load.Load()))
}

// Get looks the key up and returns the cached value when its recorded
// accuracy clears floor and its epoch is current. The hot path: no
// allocation on hit or miss.
func (c *Cache) Get(key uint64, floor float64) (value interface{}, accuracy float64, ok bool) {
	s := &c.lru
	epoch := c.epoch.Load()
	var enqueue bool
	s.mu.Lock()
	i, present := s.idx[key]
	if !present {
		s.mu.Unlock()
		c.misses.Inc()
		return nil, 0, false
	}
	e := &s.slab[i]
	if e.epoch != epoch {
		// Stale epoch: discard lazily — the synopsis behind this answer
		// has changed since it was computed.
		s.unlink(i)
		delete(s.idx, key)
		s.release(i)
		s.mu.Unlock()
		c.stale.Inc()
		c.misses.Inc()
		return nil, 0, false
	}
	if e.acc < floor {
		s.mu.Unlock()
		c.floorRejects.Inc()
		c.misses.Inc()
		return nil, 0, false
	}
	s.toFront(i)
	value, accuracy = e.value, e.acc
	fill := e.fill
	if c.refreshEnabled() && accuracy < c.cfg.RefreshBelow && e.payload != nil && !e.queued {
		e.queued = true
		enqueue = true
	}
	s.mu.Unlock()
	if enqueue {
		select {
		case c.refreshCh <- key:
		default:
			// Queue full: clear the flag so a later hit retries.
			c.clearQueued(key)
		}
	}
	c.hits.Inc()
	// A hit means the entry's fill work was not redone: credit it as
	// saved. Entries stored without a cost tag (Store, StoreAt, or a
	// Serve with no cost account) leave the counters untouched.
	if fill.CPUNs != 0 {
		c.savedCPU.Add(int64(fill.CPUNs))
	}
	if fill.Scanned != 0 {
		c.savedScanned.Add(int64(fill.Scanned))
	}
	return value, accuracy, true
}

// Store inserts (or overwrites) the value for key, tagged with the
// accuracy bound it was computed at and the current epoch. payload is
// whatever the refresh function needs to recompute the answer (the
// canonical request); nil disables refresh for the entry.
//
// Callers whose computation may straddle a BumpEpoch (any computation
// reading the backing data) should capture Epoch() *before* computing
// and use StoreAt instead, so an answer computed from pre-update data
// is never stamped current.
func (c *Cache) Store(key uint64, payload, value interface{}, accuracy float64) {
	c.StoreAt(key, payload, value, accuracy, c.epoch.Load())
}

// StoreAt is Store with an explicit epoch stamp — the epoch the
// computation *started* under. If BumpEpoch ran while the value was
// being computed, the entry is born stale and discarded lazily on its
// next lookup, exactly as if it had been cached before the update.
func (c *Cache) StoreAt(key uint64, payload, value interface{}, accuracy float64, epoch uint64) {
	c.storeAt(key, payload, value, accuracy, epoch, cost.Usage{})
}

// storeAt is StoreAt with a fill-cost tag: what computing the value cost
// (CPU, rows scanned, …). Every later hit on the entry accumulates the
// tag into the saved-cost counters (Stats.SavedCPUNs,
// Stats.SavedScanned), so the cache's contribution is metered in the
// same units as the cost-attribution plane.
func (c *Cache) storeAt(key uint64, payload, value interface{}, accuracy float64, epoch uint64, fill cost.Usage) {
	if accuracy < 0 {
		accuracy = 0
	}
	if accuracy > 1 {
		accuracy = 1
	}
	s := &c.lru
	s.mu.Lock()
	if i, present := s.idx[key]; present {
		e := &s.slab[i]
		e.value, e.payload, e.acc, e.epoch, e.fill = value, payload, accuracy, epoch, fill
		e.queued = false
		s.toFront(i)
		s.mu.Unlock()
		c.stored.Inc()
		return
	}
	i := s.free
	if i == nilIdx {
		// Full: evict the least recently used entry.
		i = s.tail
		delete(s.idx, s.slab[i].key)
		s.unlink(i)
		s.release(i)
		i = s.free
		c.evictions.Inc()
	}
	s.free = s.slab[i].next
	e := &s.slab[i]
	*e = entry{key: key, value: value, payload: payload, acc: accuracy, epoch: epoch, fill: fill, prev: nilIdx, next: nilIdx}
	s.idx[key] = i
	s.pushFront(i)
	s.mu.Unlock()
	c.stored.Inc()
}

// UpgradeIfPresent overwrites the entry for key — same contract as
// StoreAt — but only when the key is still cached under a current-or-
// equal epoch. The ground-truth auditor uses it so a finished exact
// replay doubles as a free refresh without polluting the LRU with keys
// nobody asked to cache: an absent (evicted, invalidated) key stays
// absent. Reports whether an entry was upgraded.
func (c *Cache) UpgradeIfPresent(key uint64, payload, value interface{}, accuracy float64, epoch uint64) bool {
	if accuracy < 0 {
		accuracy = 0
	}
	if accuracy > 1 {
		accuracy = 1
	}
	s := &c.lru
	s.mu.Lock()
	i, present := s.idx[key]
	if !present {
		s.mu.Unlock()
		return false
	}
	e := &s.slab[i]
	if e.epoch > epoch {
		// The cached entry already reflects newer data than the upgrade
		// was computed from; keep it.
		s.mu.Unlock()
		return false
	}
	// e.fill is deliberately left as-is: the replay's exact recompute is
	// internal work, and the entry's saved-cost tag should keep crediting
	// what the original (approximate) fill cost the serving path.
	e.value, e.payload, e.acc, e.epoch = value, payload, accuracy, epoch
	e.queued = false
	s.toFront(i)
	s.mu.Unlock()
	c.stored.Inc()
	c.refreshes.Inc()
	return true
}

// Len returns the live entry count (entries from old epochs still
// count until their lazy discard).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idx)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:         c.hits.Value(),
		Misses:       c.misses.Value(),
		Coalesced:    c.coalesced.Value(),
		Stored:       c.stored.Value(),
		Evictions:    c.evictions.Value(),
		Stale:        c.stale.Value(),
		FloorRejects: c.floorRejects.Value(),
		Refreshes:    c.refreshes.Value(),
		Rewarms:      c.rewarms.Value(),
		SavedCPUNs:   c.savedCPU.Value(),
		SavedScanned: c.savedScanned.Value(),
	}
}

// payloadOf fetches the stored payload for a pending refresh; ok is
// false when the entry was evicted or superseded in the meantime.
func (c *Cache) payloadOf(key uint64) (interface{}, bool) {
	s := &c.lru
	s.mu.Lock()
	defer s.mu.Unlock()
	i, present := s.idx[key]
	if !present {
		return nil, false
	}
	e := &s.slab[i]
	if e.payload == nil || e.epoch != c.epoch.Load() {
		return nil, false
	}
	return e.payload, true
}

// clearQueued resets the refresh-pending flag for key.
func (c *Cache) clearQueued(key uint64) {
	s := &c.lru
	s.mu.Lock()
	if i, present := s.idx[key]; present {
		s.slab[i].queued = false
	}
	s.mu.Unlock()
}

// Close stops the refresh worker (if started) and waits for it to
// finish any in-flight recomputation — after Close returns, no
// refresh touches the backing data, so callers may swap it safely.
// The cache itself needs no teardown.
func (c *Cache) Close() {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	if c.started {
		close(c.quit)
		<-c.workerDone
		c.started = false
	}
}
