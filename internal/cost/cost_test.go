package cost

import (
	"context"
	"strings"
	"sync"
	"testing"

	"accuracytrader/internal/obs"
)

func TestNilSafety(t *testing.T) {
	var tab *Table
	tab.Record(Key{Tenant: "a"}, Usage{CPUNs: 1}, false)
	if v := tab.Snapshot(); len(v.Rows) != 0 || v.Requests != 0 {
		t.Fatalf("nil table snapshot = %+v", v)
	}
	tab.RegisterMetrics(obs.NewRegistry())

	var a *Account
	a.Add(Usage{CPUNs: 5})
	a.AddWireBytes(9)
	if u := a.Usage(); u != (Usage{}) {
		t.Fatalf("nil account usage = %+v", u)
	}
	if got := AccountFrom(context.Background()); got != nil {
		t.Fatalf("AccountFrom(bare ctx) = %v", got)
	}
}

// TestNilAccountDoesNotAllocate pins the cost plane's zero cost when
// off: without an account on the context every accounting call is a
// nil-receiver no-op that allocates nothing.
func TestNilAccountDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		acct := AccountFrom(ctx)
		acct.Add(Usage{CPUNs: 1, Scanned: 2})
		acct.AddWireBytes(64)
	})
	if allocs != 0 {
		t.Fatalf("cost-off accounting path allocates %.1f/op, want 0", allocs)
	}
}

func TestAccountAccumulatesConcurrently(t *testing.T) {
	a := &Account{}
	ctx := context.WithValue(context.Background(), AccountKey{}, a)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := AccountFrom(ctx)
			for j := 0; j < 100; j++ {
				got.Add(Usage{CPUNs: 3, Scanned: 2, QueueNs: 1})
				got.AddWireBytes(4)
			}
		}()
	}
	wg.Wait()
	want := Usage{CPUNs: 2400, Scanned: 1600, QueueNs: 800, WireBytes: 3200}
	if u := a.Usage(); u != want {
		t.Fatalf("usage = %+v, want %+v", u, want)
	}
}

// TestTenantSumsEqualGlobal is the conservation contract: summing the
// per-key rows reproduces the global totals exactly, under concurrent
// writers across many tenants.
func TestTenantSumsEqualGlobal(t *testing.T) {
	tab := NewTable()
	tenants := []string{"t0", "t1", "t2", "t3", "t4"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{
					Tenant:   tenants[(w+i)%len(tenants)],
					Class:    uint8(i % 3),
					Workload: []string{"agg", "search"}[i%2],
					Level:    int16(i%4) - 1,
				}
				tab.Record(k, Usage{
					CPUNs:     uint64(i + 1),
					Scanned:   uint64(2*i + 1),
					QueueNs:   uint64(i % 7),
					WireBytes: uint64(i % 13),
					WallNs:    uint64(3 * i),
				}, i%5 == 0)
			}
		}(w)
	}
	wg.Wait()
	v := tab.Snapshot()
	var sum Usage
	var reqs, hits uint64
	for _, r := range v.Rows {
		sum = sum.Add(r.Totals)
		reqs += r.Requests
		hits += r.CacheHits
	}
	if sum != v.Global {
		t.Fatalf("row sums %+v != global %+v", sum, v.Global)
	}
	if reqs != v.Requests || hits != v.Hits {
		t.Fatalf("requests %d/%d hits %d/%d", reqs, v.Requests, hits, v.Hits)
	}
	if reqs != 8*500 {
		t.Fatalf("requests = %d, want %d", reqs, 8*500)
	}
}

func TestSnapshotSortedAndEWMA(t *testing.T) {
	tab := NewTable()
	k := Key{Tenant: "acme", Class: 1, Workload: "agg", Level: 2}
	tab.Record(k, Usage{CPUNs: 100}, false)
	v := tab.Snapshot()
	if len(v.Rows) != 1 || v.Rows[0].EWMA.CPUNs != 100 {
		t.Fatalf("first sample must initialize the EWMA: %+v", v.Rows)
	}
	tab.Record(k, Usage{CPUNs: 200}, false)
	v = tab.Snapshot()
	if got := v.Rows[0].EWMA.CPUNs; got != 100+ewmaAlpha*(200-100) {
		t.Fatalf("EWMA = %g", got)
	}
	// Sorting: tenants ascending, classes ascending within a tenant.
	tab.Record(Key{Tenant: "zeta", Class: 0, Workload: "agg", Level: 0}, Usage{}, false)
	tab.Record(Key{Tenant: "acme", Class: 0, Workload: "agg", Level: 0}, Usage{}, false)
	v = tab.Snapshot()
	if len(v.Rows) != 3 || v.Rows[0].Tenant != "acme" || v.Rows[0].Class != "Exact" ||
		v.Rows[1].Tenant != "acme" || v.Rows[2].Tenant != "zeta" {
		t.Fatalf("rows out of order: %+v", v.Rows)
	}
}

func TestRegisterMetrics(t *testing.T) {
	tab := NewTable()
	reg := obs.NewRegistry()
	tab.RegisterMetrics(reg)
	tab.Record(Key{Tenant: "acme", Class: 1, Workload: "agg", Level: 3},
		Usage{CPUNs: 7, Scanned: 11, QueueNs: 3, WireBytes: 5, WallNs: 9}, true)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"cost_requests_total 1",
		"cost_cache_hits_total 1",
		"cost_cpu_ns_total 7",
		"cost_scanned_total 11",
		"cost_tracked_keys 1",
		`cost_key_scanned_total{tenant="acme",class="Bounded",workload="agg",level="3"} 11`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}

func TestFrontierParetoMonotone(t *testing.T) {
	tab := NewTable()
	// Three ladder levels: finer scans more and (per the audit plane)
	// is more accurate — except level 9, which scans more than level 2
	// while being less accurate: a dominated point.
	rec := func(level int16, scanned uint64) {
		tab.Record(Key{Tenant: "acme", Class: 1, Workload: "agg", Level: level},
			Usage{Scanned: scanned, CPUNs: scanned * 2, WallNs: scanned * 3}, false)
	}
	rec(0, 100)
	rec(1, 500)
	rec(2, 2000)
	rec(9, 3000)
	// Internal refresh work must not become a frontier point.
	tab.Record(Key{Tenant: InternalTenant, Class: 0, Workload: "agg", Level: -1},
		Usage{Scanned: 999999}, false)
	acc := []AccuracyPoint{
		{Workload: "agg", Level: 0, Accuracy: 0.90, Samples: 10},
		{Workload: "agg", Level: 1, Accuracy: 0.96, Samples: 10},
		{Workload: "agg", Level: 2, Accuracy: 0.99, Samples: 10},
		{Workload: "agg", Level: 9, Accuracy: 0.95, Samples: 10},
		{Workload: "agg", Level: 7, Accuracy: 1.0, Samples: 10}, // no cost side: dropped
		{Workload: "search", Level: 0, Accuracy: 0.9, Samples: 0},
	}
	curves := Frontier(tab.Snapshot(), acc)
	if len(curves) != 1 || curves[0].Workload != "agg" {
		t.Fatalf("curves = %+v", curves)
	}
	c := curves[0]
	if len(c.Points) != 3 {
		t.Fatalf("pareto points = %+v", c.Points)
	}
	for i := 1; i < len(c.Points); i++ {
		if !(c.Points[i].Scanned > c.Points[i-1].Scanned) ||
			!(c.Points[i].Accuracy > c.Points[i-1].Accuracy) {
			t.Fatalf("frontier not monotone at %d: %+v", i, c.Points)
		}
	}
	if len(c.Dominated) != 1 || c.Dominated[0].Level != 9 {
		t.Fatalf("dominated = %+v", c.Dominated)
	}
	for _, p := range c.Points {
		if p.Level == 7 {
			t.Fatal("accuracy-only level joined without cost data")
		}
	}
}
