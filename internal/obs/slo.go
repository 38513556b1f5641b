package obs

import (
	"sync"
	"time"
)

// SLOFlags marks which SLO signals a finished request tripped.
type SLOFlags uint8

// The SLO signals tracked per class.
const (
	// SLODeadlineMiss: the reply landed after the request's deadline.
	SLODeadlineMiss SLOFlags = 1 << iota
	// SLOFloorViolation: realized accuracy fell below the Bounded
	// floor (reported by the ground-truth auditor, after the fact).
	SLOFloorViolation
	// SLODegraded: the reply was served degraded or unavailable.
	SLODegraded
)

// sloSignalNames orders the signal labels by bit position.
var sloSignalNames = []string{"deadline_miss", "floor_violation", "degraded"}

// SLOBudgets holds the per-signal error budgets: the tolerated bad/total
// event ratio. Burn rate = observed ratio / budget, so burn > 1 means
// the budget is being consumed faster than allowed.
type SLOBudgets struct {
	DeadlineMiss   float64 `json:"deadline_miss"`
	FloorViolation float64 `json:"floor_violation"`
	Degraded       float64 `json:"degraded"`
}

// DefaultSLOBudgets tolerates 0.1% deadline misses, 0.1% floor
// violations, and 5% degraded replies.
func DefaultSLOBudgets() SLOBudgets {
	return SLOBudgets{DeadlineMiss: 1e-3, FloorViolation: 1e-3, Degraded: 5e-2}
}

// sloWindowSpec describes one sliding window: its label, bucket
// granularity in seconds, and bucket count (span = gran * buckets).
type sloWindowSpec struct {
	name    string
	gran    int64
	buckets int
}

// sloWindows are the tracked burn-rate windows: 1m at 1s granularity,
// 10m at 10s, 1h at 60s.
var sloWindows = []sloWindowSpec{
	{"1m", 1, 60},
	{"10m", 10, 60},
	{"1h", 60, 60},
}

// sloBucket is one granularity slot of a window. epoch is the absolute
// bucket index (unixSeconds / gran) it currently holds counts for.
type sloBucket struct {
	epoch int64
	total int64
	miss  int64
	floor int64
	deg   int64
}

// sloWindow is a circular bucket array over one granularity.
type sloWindow struct {
	spec    sloWindowSpec
	buckets []sloBucket
}

func (w *sloWindow) record(unixSec int64, flags SLOFlags, countTotal bool) {
	e := unixSec / w.spec.gran
	b := &w.buckets[int(e%int64(len(w.buckets)))]
	if b.epoch != e {
		*b = sloBucket{epoch: e}
	}
	if countTotal {
		b.total++
	}
	if flags&SLODeadlineMiss != 0 {
		b.miss++
	}
	if flags&SLOFloorViolation != 0 {
		b.floor++
	}
	if flags&SLODegraded != 0 {
		b.deg++
	}
}

// sum totals the buckets still inside the window ending at unixSec.
func (w *sloWindow) sum(unixSec int64) (total, miss, floor, deg int64) {
	e := unixSec / w.spec.gran
	lo := e - int64(len(w.buckets)) + 1
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.epoch >= lo && b.epoch <= e {
			total += b.total
			miss += b.miss
			floor += b.floor
			deg += b.deg
		}
	}
	return
}

// sloSeries is one (class or class×tenant) dimension: every window,
// guarded by one mutex so record stays allocation-free and race-safe.
type sloSeries struct {
	mu      sync.Mutex
	windows []sloWindow
}

func newSLOSeries() *sloSeries {
	s := &sloSeries{windows: make([]sloWindow, len(sloWindows))}
	for i, spec := range sloWindows {
		s.windows[i] = sloWindow{spec: spec, buckets: make([]sloBucket, spec.buckets)}
	}
	return s
}

func (s *sloSeries) record(unixSec int64, flags SLOFlags, countTotal bool) {
	s.mu.Lock()
	for i := range s.windows {
		s.windows[i].record(unixSec, flags, countTotal)
	}
	s.mu.Unlock()
}

// SLOWindowView is one window's snapshot for one class dimension.
type SLOWindowView struct {
	Window         string  `json:"window"`
	Total          int64   `json:"total"`
	DeadlineMiss   int64   `json:"deadline_miss"`
	FloorViolation int64   `json:"floor_violation"`
	Degraded       int64   `json:"degraded"`
	BurnMiss       float64 `json:"burn_deadline_miss"`
	BurnFloor      float64 `json:"burn_floor_violation"`
	BurnDegraded   float64 `json:"burn_degraded"`
}

// SLOClassView is one SLO class's windows.
type SLOClassView struct {
	Class   string          `json:"class"`
	Windows []SLOWindowView `json:"windows"`
}

// SLOView is the full /slo snapshot.
type SLOView struct {
	Budgets SLOBudgets                `json:"budgets"`
	Classes []SLOClassView            `json:"classes"`
	Tenants map[string][]SLOClassView `json:"tenants,omitempty"`
}

// SLOTracker accounts SLO attainment per class (Exact/Bounded/
// BestEffort) over sliding multi-window burn rates, with an optional
// per-tenant dimension. A nil tracker is a valid no-op receiver, so
// call sites need no branches and the disabled path costs nothing.
type SLOTracker struct {
	budgets SLOBudgets
	now     func() time.Time

	classes [3]*sloSeries

	mu         sync.RWMutex
	tenants    map[string]*[3]*sloSeries
	maxTenants int
}

// maxSLOTenants bounds the tenant dimension; past it, new tenants
// collapse into the "~other" key so a tenant-id flood cannot grow the
// tracker without bound.
const maxSLOTenants = 64

// overflowTenant is the collapsed key for tenants past the cap.
const overflowTenant = "~other"

// NewSLOTracker returns a tracker with the given budgets. Zero-valued
// budget fields fall back to the defaults.
func NewSLOTracker(budgets SLOBudgets) *SLOTracker {
	def := DefaultSLOBudgets()
	if budgets.DeadlineMiss <= 0 {
		budgets.DeadlineMiss = def.DeadlineMiss
	}
	if budgets.FloorViolation <= 0 {
		budgets.FloorViolation = def.FloorViolation
	}
	if budgets.Degraded <= 0 {
		budgets.Degraded = def.Degraded
	}
	t := &SLOTracker{
		budgets:    budgets,
		now:        time.Now,
		tenants:    make(map[string]*[3]*sloSeries),
		maxTenants: maxSLOTenants,
	}
	for i := range t.classes {
		t.classes[i] = newSLOSeries()
	}
	return t
}

// Record accounts one finished request of the given class (0=Exact,
// 1=Bounded, 2=BestEffort; other values are ignored) with the signals
// it tripped. tenant "" records only the class aggregate.
func (t *SLOTracker) Record(class uint8, tenant string, flags SLOFlags) {
	if t == nil {
		return
	}
	t.recordAt(t.now(), class, tenant, flags, true)
}

// RecordFloorViolation accounts an after-the-fact floor violation (the
// auditor's path): the request was already counted in the totals when
// it finished, so only the violation counter moves.
func (t *SLOTracker) RecordFloorViolation(class uint8, tenant string) {
	if t == nil {
		return
	}
	t.recordAt(t.now(), class, tenant, SLOFloorViolation, false)
}

func (t *SLOTracker) recordAt(at time.Time, class uint8, tenant string, flags SLOFlags, countTotal bool) {
	if t == nil || int(class) >= len(t.classes) {
		return
	}
	sec := at.Unix()
	t.classes[class].record(sec, flags, countTotal)
	if tenant == "" {
		return
	}
	t.mu.RLock()
	series := t.tenants[tenant]
	t.mu.RUnlock()
	if series == nil {
		t.mu.Lock()
		series = t.tenants[tenant]
		if series == nil {
			if len(t.tenants) >= t.maxTenants {
				tenant = overflowTenant
				series = t.tenants[tenant]
			}
			if series == nil {
				series = new([3]*sloSeries)
				for i := range series {
					series[i] = newSLOSeries()
				}
				t.tenants[tenant] = series
			}
		}
		t.mu.Unlock()
	}
	series[class].record(sec, flags, countTotal)
}

// burn converts a bad/total ratio into budget-relative burn.
func burn(bad, total int64, budget float64) float64 {
	if total == 0 || budget <= 0 {
		return 0
	}
	return float64(bad) / float64(total) / budget
}

func (t *SLOTracker) windowsOf(s *sloSeries, sec int64) []SLOWindowView {
	out := make([]SLOWindowView, len(s.windows))
	s.mu.Lock()
	for i := range s.windows {
		w := &s.windows[i]
		total, miss, floor, deg := w.sum(sec)
		out[i] = SLOWindowView{
			Window:         w.spec.name,
			Total:          total,
			DeadlineMiss:   miss,
			FloorViolation: floor,
			Degraded:       deg,
			BurnMiss:       burn(miss, total, t.budgets.DeadlineMiss),
			BurnFloor:      burn(floor, total, t.budgets.FloorViolation),
			BurnDegraded:   burn(deg, total, t.budgets.Degraded),
		}
	}
	s.mu.Unlock()
	return out
}

// Window returns the (total, miss, floor, degraded) counts of one
// class's window (by index into the 1m/10m/1h list) at the tracker's
// current clock. Test hook for naive-reference comparison.
func (t *SLOTracker) Window(class uint8, window int) (total, miss, floor, deg int64) {
	if t == nil || int(class) >= len(t.classes) || window < 0 || window >= len(sloWindows) {
		return
	}
	s := t.classes[class]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.windows[window].sum(t.now().Unix())
}

// BurnRate returns one class's budget-relative burn for a signal bit
// over window index w (0=1m, 1=10m, 2=1h).
func (t *SLOTracker) BurnRate(class uint8, signal SLOFlags, w int) float64 {
	if t == nil || int(class) >= len(t.classes) || w < 0 || w >= len(sloWindows) {
		return 0
	}
	s := t.classes[class]
	s.mu.Lock()
	total, miss, floor, deg := s.windows[w].sum(t.now().Unix())
	s.mu.Unlock()
	switch signal {
	case SLODeadlineMiss:
		return burn(miss, total, t.budgets.DeadlineMiss)
	case SLOFloorViolation:
		return burn(floor, total, t.budgets.FloorViolation)
	case SLODegraded:
		return burn(deg, total, t.budgets.Degraded)
	}
	return 0
}

// Snapshot builds the full /slo view.
func (t *SLOTracker) Snapshot() SLOView {
	if t == nil {
		return SLOView{}
	}
	sec := t.now().Unix()
	v := SLOView{Budgets: t.budgets}
	for class := range t.classes {
		v.Classes = append(v.Classes, SLOClassView{
			Class:   ClassLabel(uint8(class)),
			Windows: t.windowsOf(t.classes[class], sec),
		})
	}
	t.mu.RLock()
	names := make([]string, 0, len(t.tenants))
	for name := range t.tenants {
		names = append(names, name)
	}
	t.mu.RUnlock()
	if len(names) > 0 {
		v.Tenants = make(map[string][]SLOClassView, len(names))
		for _, name := range names {
			t.mu.RLock()
			series := t.tenants[name]
			t.mu.RUnlock()
			if series == nil {
				continue
			}
			var classes []SLOClassView
			for class := range series {
				classes = append(classes, SLOClassView{
					Class:   ClassLabel(uint8(class)),
					Windows: t.windowsOf(series[class], sec),
				})
			}
			v.Tenants[name] = classes
		}
	}
	return v
}

// RegisterMetrics exports every class×signal×window burn rate as a
// slo_burn_rate gauge in reg.
func (t *SLOTracker) RegisterMetrics(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	for class := range t.classes {
		for bit, signal := range sloSignalNames {
			for w := range sloWindows {
				class, w := uint8(class), w
				flag := SLOFlags(1) << uint(bit)
				labels := Labels(
					"class", ClassLabel(class),
					"signal", signal,
					"window", sloWindows[w].name,
				)
				reg.GaugeFunc("slo_burn_rate"+labels, func() float64 {
					return t.BurnRate(class, flag, w)
				})
			}
		}
	}
}
