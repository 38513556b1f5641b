package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// naiveSLO is the reference implementation for the sliding windows: it
// keeps every (timestamp, flags, counted) event and re-scans the lot.
type naiveSLO struct {
	events []struct {
		sec     int64
		flags   SLOFlags
		counted bool
	}
}

func (n *naiveSLO) record(sec int64, flags SLOFlags, counted bool) {
	n.events = append(n.events, struct {
		sec     int64
		flags   SLOFlags
		counted bool
	}{sec, flags, counted})
}

// window sums events whose bucket (sec/gran) lies inside the window of
// `buckets` buckets of `gran` seconds ending at the bucket of nowSec.
func (n *naiveSLO) window(nowSec, gran int64, buckets int) (total, miss, floor, deg int64) {
	hi := nowSec / gran
	lo := hi - int64(buckets) + 1
	for _, e := range n.events {
		b := e.sec / gran
		if b < lo || b > hi {
			continue
		}
		if e.counted {
			total++
		}
		if e.flags&SLODeadlineMiss != 0 {
			miss++
		}
		if e.flags&SLOFloorViolation != 0 {
			floor++
		}
		if e.flags&SLODegraded != 0 {
			deg++
		}
	}
	return
}

// TestSLOTrackerMatchesNaiveReference feeds one deterministic stream to
// the tracker and to a keep-everything reference per class, then checks
// every class x window's counts, and the three signals' burn rates
// against the naive formula bad/total/budget under DefaultSLOBudgets.
func TestSLOTrackerMatchesNaiveReference(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	now := base
	budgets := DefaultSLOBudgets()
	tr := NewSLOTracker(budgets)
	tr.now = func() time.Time { return now }
	var refs [3]naiveSLO

	// A deterministic stream spread over ~2h so every window rolls
	// buckets out: xorshift drives time steps, classes and flag patterns.
	rng := uint64(42)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	at := base
	for i := 0; i < 6000; i++ {
		at = at.Add(time.Duration(next(3)) * time.Second)
		class := uint8(next(3))
		var flags SLOFlags
		if next(100) < 5 {
			flags |= SLODeadlineMiss
		}
		if next(100) < 20 {
			flags |= SLODegraded
		}
		tr.recordAt(at, class, "", flags, true)
		refs[class].record(at.Unix(), flags, true)
		if next(100) < 3 {
			// After-the-fact floor violation: bumps only the violation
			// counter, never the total.
			now = at
			tr.RecordFloorViolation(class, "")
			refs[class].record(at.Unix(), SLOFloorViolation, false)
		}
	}
	now = at
	burn := func(bad, total int64, budget float64) float64 {
		if total == 0 {
			return 0
		}
		return float64(bad) / float64(total) / budget
	}
	for class := uint8(0); class < 3; class++ {
		for w, spec := range sloWindows {
			total, miss, floor, deg := tr.Window(class, w)
			nt, nm, nf, nd := refs[class].window(at.Unix(), spec.gran, spec.buckets)
			if total != nt || miss != nm || floor != nf || deg != nd {
				t.Fatalf("class %d window %s: tracker (%d,%d,%d,%d) != naive (%d,%d,%d,%d)",
					class, spec.name, total, miss, floor, deg, nt, nm, nf, nd)
			}
			if nt == 0 || (spec.name == "1h" && (nm == 0 || nf == 0 || nd == 0)) {
				t.Fatalf("class %d window %s holds too little to judge: (%d,%d,%d,%d)", class, spec.name, nt, nm, nf, nd)
			}
			for _, sig := range []struct {
				flag   SLOFlags
				bad    int64
				budget float64
			}{
				{SLODeadlineMiss, nm, budgets.DeadlineMiss},
				{SLOFloorViolation, nf, budgets.FloorViolation},
				{SLODegraded, nd, budgets.Degraded},
			} {
				got, want := tr.BurnRate(class, sig.flag, w), burn(sig.bad, nt, sig.budget)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("class %d window %s signal %d: burn rate %g, naive %g", class, spec.name, sig.flag, got, want)
				}
			}
		}
	}
	// Re-check after the stream ages fully out of the 1m window.
	now = at.Add(2 * time.Minute)
	for class := uint8(0); class < 3; class++ {
		if total, _, _, _ := tr.Window(class, 0); total != 0 {
			t.Fatalf("class %d: 1m window still holds %d events 2m after the stream ended", class, total)
		}
		if nt, _, _, _ := refs[class].window(now.Unix(), 1, 60); nt != 0 {
			t.Fatalf("naive reference disagrees: %d", nt)
		}
	}
}

func TestSLOTrackerBurnRates(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewSLOTracker(SLOBudgets{DeadlineMiss: 0.01, Degraded: 0.1})
	tr.now = func() time.Time { return now }
	for i := 0; i < 99; i++ {
		tr.recordAt(now, 2, "", 0, true)
	}
	tr.recordAt(now, 2, "", SLODeadlineMiss|SLODegraded, true)
	// 1 miss in 100 at a 1% budget = burn exactly 1.0.
	if got := tr.BurnRate(2, SLODeadlineMiss, 0); got != 1.0 {
		t.Fatalf("deadline burn = %g, want 1.0", got)
	}
	// 1 degraded in 100 at a 10% budget = burn 0.1 (up to fp rounding).
	if got := tr.BurnRate(2, SLODegraded, 0); got < 0.1-1e-12 || got > 0.1+1e-12 {
		t.Fatalf("degraded burn = %g, want 0.1", got)
	}
	// Unused class: no traffic, burn 0 (not NaN).
	if got := tr.BurnRate(0, SLODeadlineMiss, 0); got != 0 {
		t.Fatalf("idle-class burn = %g, want 0", got)
	}
}

func TestSLOTrackerTenantsAndOverflow(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewSLOTracker(SLOBudgets{})
	tr.now = func() time.Time { return now }
	tr.maxTenants = 3
	for i := 0; i < 10; i++ {
		tr.recordAt(now, 1, fmt.Sprintf("tenant-%d", i), SLODegraded, true)
	}
	v := tr.Snapshot()
	if len(v.Tenants) != 4 { // 3 real + "~other"
		t.Fatalf("tenant dimensions = %d, want 4 (cap 3 + overflow)", len(v.Tenants))
	}
	other, ok := v.Tenants[overflowTenant]
	if !ok {
		t.Fatalf("overflow tenant missing; have %v", keysOf(v.Tenants))
	}
	if got := other[1].Windows[0].Total; got != 7 {
		t.Fatalf("overflow tenant total = %d, want 7", got)
	}
	// The class aggregate saw everyone.
	if total, _, _, _ := tr.Window(1, 0); total != 10 {
		t.Fatalf("class aggregate total = %d, want 10", total)
	}
}

// TestSLOTrackerManyTenantsCapAtDefault drives a tenant-ID flood (far
// past the default cap) and pins the containment behavior: the map
// stops growing at maxSLOTenants, everything past the cap collapses
// into the overflow series instead of allocating without bound, events
// are conserved (per-tenant totals sum to the class aggregate), and
// tenants admitted before the flood keep recording into their own
// series rather than being evicted into "~other".
func TestSLOTrackerManyTenantsCapAtDefault(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewSLOTracker(SLOBudgets{})
	tr.now = func() time.Time { return now }
	if tr.maxTenants != maxSLOTenants {
		t.Fatalf("default cap = %d, want %d", tr.maxTenants, maxSLOTenants)
	}
	tr.recordAt(now, 1, "early-bird", SLODeadlineMiss, true)
	const flood = 500
	for i := 0; i < flood; i++ {
		tr.recordAt(now, 1, fmt.Sprintf("flood-%04d", i), SLODegraded, true)
	}
	// The early tenant records again after the flood filled the map.
	tr.recordAt(now, 1, "early-bird", SLODeadlineMiss, true)

	v := tr.Snapshot()
	if len(v.Tenants) != maxSLOTenants+1 { // cap + "~other"
		t.Fatalf("tenant series = %d, want %d", len(v.Tenants), maxSLOTenants+1)
	}
	early, ok := v.Tenants["early-bird"]
	if !ok {
		t.Fatal("pre-flood tenant evicted by the flood")
	}
	if got := early[1].Windows[0].DeadlineMiss; got != 2 {
		t.Fatalf("early-bird misses = %d, want 2 (post-flood event lost)", got)
	}
	other, ok := v.Tenants[overflowTenant]
	if !ok {
		t.Fatal("overflow tenant missing")
	}
	// early-bird took one slot, so maxSLOTenants-1 flood tenants were
	// admitted; the rest landed in the overflow bucket.
	wantOther := int64(flood - (maxSLOTenants - 1))
	if got := other[1].Windows[0].Total; got != wantOther {
		t.Fatalf("overflow total = %d, want %d", got, wantOther)
	}
	var perTenant int64
	for _, classes := range v.Tenants {
		perTenant += classes[1].Windows[0].Total
	}
	total, _, _, _ := tr.Window(1, 0)
	if perTenant != total || total != flood+2 {
		t.Fatalf("conservation: per-tenant sum %d, class aggregate %d, want %d",
			perTenant, total, flood+2)
	}
}

func keysOf(m map[string][]SLOClassView) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestSLOTrackerNilSafe(t *testing.T) {
	var tr *SLOTracker
	tr.Record(1, "t", SLODeadlineMiss)
	tr.RecordFloorViolation(1, "t")
	tr.RegisterMetrics(NewRegistry())
	if got := tr.BurnRate(1, SLODeadlineMiss, 0); got != 0 {
		t.Fatalf("nil BurnRate = %g, want 0", got)
	}
	if v := tr.Snapshot(); len(v.Classes) != 0 {
		t.Fatalf("nil Snapshot non-empty: %+v", v)
	}
	// Out-of-range class and window indices are ignored, not panics.
	live := NewSLOTracker(SLOBudgets{})
	live.Record(9, "t", SLODeadlineMiss)
	if got := live.BurnRate(9, SLODeadlineMiss, 0); got != 0 {
		t.Fatalf("bad-class BurnRate = %g, want 0", got)
	}
	if got := live.BurnRate(1, SLODeadlineMiss, 5); got != 0 {
		t.Fatalf("bad-window BurnRate = %g, want 0", got)
	}
}

func TestSLOTrackerRegisterMetrics(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewSLOTracker(SLOBudgets{DeadlineMiss: 0.01})
	tr.now = func() time.Time { return now }
	reg := NewRegistry()
	tr.RegisterMetrics(reg)
	tr.recordAt(now, 1, "", SLODeadlineMiss, true)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := `slo_burn_rate{class="Bounded",signal="deadline_miss",window="1m"} 100`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing %q\n--- got ---\n%s", want, out)
	}
	// 3 classes x 3 signals x 3 windows.
	if n := strings.Count(out, "slo_burn_rate{"); n != 27 {
		t.Fatalf("exported %d slo_burn_rate series, want 27", n)
	}
}

func TestSLOTrackerRecordRace(t *testing.T) {
	tr := NewSLOTracker(SLOBudgets{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%2)
			for i := 0; i < 2000; i++ {
				tr.Record(uint8(i%3), tenant, SLOFlags(i%8))
			}
		}()
	}
	for i := 0; i < 20; i++ {
		tr.Snapshot()
		tr.BurnRate(1, SLODegraded, 1)
	}
	wg.Wait()
	var total int64
	for class := uint8(0); class < 3; class++ {
		ct, _, _, _ := tr.Window(class, 2)
		total += ct
	}
	if total != 8000 {
		t.Fatalf("1h totals across classes = %d, want 8000", total)
	}
}

func TestSLOTrackerRecordDoesNotAllocate(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewSLOTracker(SLOBudgets{})
	tr.now = func() time.Time { return now }
	tr.Record(1, "warm", SLODegraded) // pre-create the tenant series
	allocs := testing.AllocsPerRun(200, func() {
		tr.Record(1, "warm", SLODeadlineMiss)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op on a warm tenant, want 0", allocs)
	}
}
