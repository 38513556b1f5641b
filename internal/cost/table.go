package cost

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"accuracytrader/internal/obs"
)

// Key identifies one cost series: who (tenant), under what contract
// (SLO class byte, wire encoding), doing what (workload), at which
// ladder level (-1 = no level / exact scan).
type Key struct {
	Tenant   string
	Class    uint8
	Workload string
	Level    int16
}

// InternalTenant is the reserved tenant internal traffic (cache
// refreshes, rewarms) is billed to, so background capacity cost stays
// visible without polluting any real tenant's series. Audit replays are
// excluded from the table entirely — they re-measure work already
// accounted to the original request.
const InternalTenant = "~internal"

// ewmaAlpha weights the newest request 1:4 against history — fast
// enough to track load shifts, smooth enough to survive one outlier.
const ewmaAlpha = 0.2

// maxMetricKeys caps how many keys register per-key Prometheus series;
// beyond it the aggregate series still grow but scrape cardinality
// stays bounded. /costs always serves every key.
const maxMetricKeys = 256

// entry accumulates one key's totals (atomics, exact) and EWMA
// per-request means (under mu).
type entry struct {
	requests atomic.Uint64
	hits     atomic.Uint64
	cpuNs    atomic.Uint64
	scanned  atomic.Uint64
	queueNs  atomic.Uint64
	wireNs   atomic.Uint64 // wire bytes, named for symmetry with the atomics above
	wallNs   atomic.Uint64

	mu   sync.Mutex
	ewma [5]float64 // cpu, scanned, queue, wire, wall per-request means
	seen bool
}

// Table aggregates per-request usage per Key. All methods are
// concurrency-safe and nil-safe: a nil *Table no-ops, which is the
// whole cost plane's off switch.
type Table struct {
	mu sync.RWMutex
	m  map[Key]*entry

	// Global totals, fed the same integers as the entries, so summing
	// the per-tenant rows reproduces these exactly once writers quiesce.
	requests  atomic.Uint64
	hits      atomic.Uint64
	cpuNs     atomic.Uint64
	scanned   atomic.Uint64
	queueNs   atomic.Uint64
	wireBytes atomic.Uint64
	wallNs    atomic.Uint64

	reg        atomic.Pointer[obs.Registry]
	metricKeys atomic.Int64
}

// NewTable returns an empty cost table.
func NewTable() *Table {
	return &Table{m: make(map[Key]*entry)}
}

// Record folds one finished request's usage into the table. hit marks
// a result served from the accuracy-aware cache (its saved fan-out
// shows up as low usage; the hit count keeps the ratio readable).
// Nil-safe: recording into a nil table is a no-op.
func (t *Table) Record(k Key, u Usage, hit bool) {
	if t == nil {
		return
	}
	e := t.entry(k)
	e.requests.Add(1)
	t.requests.Add(1)
	if hit {
		e.hits.Add(1)
		t.hits.Add(1)
	}
	e.cpuNs.Add(u.CPUNs)
	e.scanned.Add(u.Scanned)
	e.queueNs.Add(u.QueueNs)
	e.wireNs.Add(u.WireBytes)
	e.wallNs.Add(u.WallNs)
	t.cpuNs.Add(u.CPUNs)
	t.scanned.Add(u.Scanned)
	t.queueNs.Add(u.QueueNs)
	t.wireBytes.Add(u.WireBytes)
	t.wallNs.Add(u.WallNs)

	sample := [5]float64{
		float64(u.CPUNs), float64(u.Scanned), float64(u.QueueNs),
		float64(u.WireBytes), float64(u.WallNs),
	}
	e.mu.Lock()
	if !e.seen {
		e.ewma = sample
		e.seen = true
	} else {
		for i := range e.ewma {
			e.ewma[i] += ewmaAlpha * (sample[i] - e.ewma[i])
		}
	}
	e.mu.Unlock()
}

// entry returns (creating if needed) k's entry.
func (t *Table) entry(k Key) *entry {
	t.mu.RLock()
	e := t.m[k]
	t.mu.RUnlock()
	if e != nil {
		return e
	}
	t.mu.Lock()
	e = t.m[k]
	if e == nil {
		e = &entry{}
		t.m[k] = e
		t.mu.Unlock()
		t.registerKeyMetrics(k, e)
		return e
	}
	t.mu.Unlock()
	return e
}

// RegisterMetrics exports the table on reg: global totals, the tracked
// key count, and per-key series for the first maxMetricKeys keys.
// Nil-safe.
func (t *Table) RegisterMetrics(reg *obs.Registry) {
	if t == nil || reg == nil {
		return
	}
	t.reg.Store(reg)
	reg.GaugeFunc("cost_requests_total", func() float64 { return float64(t.requests.Load()) })
	reg.GaugeFunc("cost_cache_hits_total", func() float64 { return float64(t.hits.Load()) })
	reg.GaugeFunc("cost_cpu_ns_total", func() float64 { return float64(t.cpuNs.Load()) })
	reg.GaugeFunc("cost_scanned_total", func() float64 { return float64(t.scanned.Load()) })
	reg.GaugeFunc("cost_queue_ns_total", func() float64 { return float64(t.queueNs.Load()) })
	reg.GaugeFunc("cost_wire_bytes_total", func() float64 { return float64(t.wireBytes.Load()) })
	reg.GaugeFunc("cost_tracked_keys", func() float64 { return float64(t.keys()) })
}

// registerKeyMetrics registers one new key's Prometheus series, up to
// the cardinality cap. Called once per key, off the hot path.
func (t *Table) registerKeyMetrics(k Key, e *entry) {
	reg := t.reg.Load()
	if reg == nil {
		return
	}
	if t.metricKeys.Add(1) > maxMetricKeys {
		return
	}
	labels := obs.Labels(
		"tenant", k.Tenant,
		"class", obs.ClassLabel(k.Class),
		"workload", k.Workload,
		"level", strconv.Itoa(int(k.Level)),
	)
	reg.GaugeFunc("cost_key_requests_total"+labels, func() float64 { return float64(e.requests.Load()) })
	reg.GaugeFunc("cost_key_cpu_ns_total"+labels, func() float64 { return float64(e.cpuNs.Load()) })
	reg.GaugeFunc("cost_key_scanned_total"+labels, func() float64 { return float64(e.scanned.Load()) })
	reg.GaugeFunc("cost_key_queue_ns_total"+labels, func() float64 { return float64(e.queueNs.Load()) })
	reg.GaugeFunc("cost_key_wire_bytes_total"+labels, func() float64 { return float64(e.wireNs.Load()) })
}

// keys counts tracked keys.
func (t *Table) keys() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// Row is one key's aggregate in a snapshot.
type Row struct {
	Tenant   string `json:"tenant"`
	Class    string `json:"class"`
	Workload string `json:"workload"`
	Level    int16  `json:"level"`
	Requests uint64 `json:"requests"`
	// CacheHits counts requests served from the result cache.
	CacheHits uint64 `json:"cache_hits"`
	// Totals are exact integer sums over the row's requests.
	Totals Usage `json:"totals"`
	// EWMA is the exponentially weighted per-request usage (alpha 0.2)
	// — the live cost curve /frontier joins against accuracy.
	EWMA EWMAUsage `json:"ewma"`

	key Key
}

// EWMAUsage mirrors Usage with float64 EWMA means.
type EWMAUsage struct {
	CPUNs     float64 `json:"cpu_ns"`
	Scanned   float64 `json:"scanned"`
	QueueNs   float64 `json:"queue_ns"`
	WireBytes float64 `json:"wire_bytes"`
	WallNs    float64 `json:"wall_ns"`
}

// View is the /costs document: every tracked row plus the global
// totals the rows must sum to.
type View struct {
	Rows     []Row  `json:"rows"`
	Global   Usage  `json:"global_totals"`
	Requests uint64 `json:"requests"`
	Hits     uint64 `json:"cache_hits"`
}

// Snapshot copies the table, rows sorted by (tenant, class, workload,
// level). Nil-safe: a nil table snapshots empty.
func (t *Table) Snapshot() View {
	if t == nil {
		return View{}
	}
	var v View
	t.mu.RLock()
	for k, e := range t.m {
		e.mu.Lock()
		ew := e.ewma
		e.mu.Unlock()
		v.Rows = append(v.Rows, Row{
			Tenant:    k.Tenant,
			Class:     obs.ClassLabel(k.Class),
			Workload:  k.Workload,
			Level:     k.Level,
			Requests:  e.requests.Load(),
			CacheHits: e.hits.Load(),
			Totals: Usage{
				CPUNs:     e.cpuNs.Load(),
				Scanned:   e.scanned.Load(),
				QueueNs:   e.queueNs.Load(),
				WireBytes: e.wireNs.Load(),
				WallNs:    e.wallNs.Load(),
			},
			EWMA: EWMAUsage{
				CPUNs: ew[0], Scanned: ew[1], QueueNs: ew[2],
				WireBytes: ew[3], WallNs: ew[4],
			},
			key: k,
		})
	}
	t.mu.RUnlock()
	sort.Slice(v.Rows, func(i, j int) bool {
		a, b := v.Rows[i], v.Rows[j]
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		if a.key.Class != b.key.Class {
			return a.key.Class < b.key.Class
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return a.Level < b.Level
	})
	v.Global = Usage{
		CPUNs:     t.cpuNs.Load(),
		Scanned:   t.scanned.Load(),
		QueueNs:   t.queueNs.Load(),
		WireBytes: t.wireBytes.Load(),
		WallNs:    t.wallNs.Load(),
	}
	v.Requests = t.requests.Load()
	v.Hits = t.hits.Load()
	return v
}
