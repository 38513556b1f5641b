package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing" // AllocsPerRun: the cost-off zero-allocation guard
	"time"

	"accuracytrader/internal/cost"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// The costcompare experiment (observability extension, not a paper
// figure) validates the cost attribution plane end to end on the real
// networked stack: per-request resource accounts folded from component
// span costs, a sharded per-(tenant, class, workload, level) table,
// the accuracy-vs-cost frontier joined from measured accuracy, and the
// anomaly-triggered profiler. Its contracts (EXPERIMENTS.md §
// costcompare): zero cost when off; child costs conserving a bounded
// share of parent wall time; per-tenant rows summing exactly to the
// totals; a monotone accuracy-vs-cost frontier; and a profiler that
// fires once per sustained burn, cools down and re-arms.
const (
	// costIMaxFrac caps Algorithm 1's improvement phase so coarse
	// ladder levels stay genuinely cheaper: an unloaded backend would
	// otherwise improve every answer back to an exact scan, collapsing
	// the per-level cost differences the frontier is built from.
	costIMaxFrac = 0.01
	// costCallsPerCell is how many Bounded requests each
	// (tenant, level) cell receives.
	costCallsPerCell = 4
	// costShareFloor / costShareCeilPerShard bound contract 2: child
	// exec+queue time as a fraction of parent wall time must exceed the
	// floor (the accounts are not empty) and stay under ceil × shards
	// (sub-operations run inside the parent's window, so each shard can
	// contribute at most ~one wall's worth, plus timing jitter).
	costShareFloor        = 1e-4
	costShareCeilPerShard = 1.25
	// costProfCooldown / costProfCPUDur configure the profiler phase's
	// fake-clock cooldown and (real-time) CPU capture duration.
	costProfCooldown = 10 * time.Second
	costProfCPUDur   = 5 * time.Millisecond
)

// costTenants are the synthetic tenants of the attribution pass.
var costTenants = []string{"acme", "bravo", "carol"}

// CostCompare is the experiment result.
type CostCompare struct {
	contracts
	Servers int
	Levels  int
}

// RunCostCompare runs the cost-plane validation at a scale.
func RunCostCompare(sc Scale) (*CostCompare, error) {
	f, err := aggFixture(sc, 0xc057, 16)
	if err != nil {
		return nil, err
	}
	levels := len(f.levelAcc)
	cc := &CostCompare{Servers: len(f.Comps), Levels: levels}

	// (1) Zero cost when off: no account on the context means every
	// accounting call is a nil-receiver no-op.
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		acct := cost.AccountFrom(ctx)
		acct.Add(cost.Usage{CPUNs: 1, Scanned: 2})
		acct.AddWireBytes(64)
	})
	cc.promise("zero-cost", allocs == 0 || raceEnabled,
		"cost-off accounting path %.1f allocs/op (%s)", allocs, wantZeroAllocs())

	// (2)-(4) share one metered loopback stack.
	v, err := runCostPass(f)
	if err != nil {
		return nil, err
	}
	calls, wantRows := len(costTenants)*levels*costCallsPerCell, len(costTenants)*levels

	// (2) Conservation: the folded child costs explain a bounded,
	// nonzero share of the parents' wall time.
	share, ceil := 0.0, costShareCeilPerShard*float64(cc.Servers)
	if v.Global.WallNs > 0 {
		share = float64(v.Global.CPUNs+v.Global.QueueNs) / float64(v.Global.WallNs)
	}
	cc.promise("conservation", v.Global.Scanned > 0 && v.Global.WireBytes > 0 &&
		share >= costShareFloor && share <= ceil,
		"component exec+queue explain %.3fx of parent wall time (want within [%g, %.2f])",
		share, costShareFloor, ceil)

	// (3) Tenant attribution: rows sum to the global totals exactly.
	var sum cost.Usage
	var sumReq uint64
	for _, r := range v.Rows {
		sum = sum.Add(r.Totals)
		sumReq += r.Requests
	}
	cc.promise("attribution", len(v.Rows) == wantRows &&
		sum == v.Global && sumReq == v.Requests && v.Requests == uint64(calls),
		"%d calls over %d tenants: %d/%d rows, per-tenant sums must equal global totals exactly",
		calls, len(costTenants), len(v.Rows), wantRows)

	// (4) Frontier: join the table's measured per-level scan costs with
	// the measured per-level accuracy and require a monotone Pareto
	// curve of at least two points.
	var pts []cost.AccuracyPoint
	for l, acc := range f.levelAcc {
		pts = append(pts, cost.AccuracyPoint{Workload: "agg", Level: int16(l), Accuracy: acc, Samples: costCallsPerCell})
	}
	curves := cost.Frontier(v, pts)
	frontierOK := len(curves) == 1 && curves[0].Workload == "agg"
	points, dominated, spread := 0, 0, 0.0
	if frontierOK {
		c := curves[0]
		points, dominated = len(c.Points), len(c.Dominated)
		frontierOK = points >= 2 && points+dominated == levels
		for i := 1; i < points; i++ {
			if c.Points[i].Scanned <= c.Points[i-1].Scanned ||
				c.Points[i].Accuracy <= c.Points[i-1].Accuracy {
				frontierOK = false
			}
		}
		if points >= 2 && c.Points[0].Scanned > 0 {
			spread = c.Points[points-1].Scanned / c.Points[0].Scanned
		}
	}
	cc.promise("frontier", frontierOK,
		"%d Pareto points (+%d dominated) of %d levels, scanned spread %.1fx; accuracy must strictly increase with cost over >= 2 points",
		points, dominated, levels, spread)

	// (5) Profiler hygiene under a sustained burn.
	if err := cc.runProfilerPhase(); err != nil {
		return nil, err
	}
	return cc, nil
}

// runCostPass builds a metered loopback stack over the fixture's
// components and drives costCallsPerCell Bounded requests into every
// (tenant, ladder level) cell, then snapshots the cost table.
func runCostPass(f *aggFix) (cost.View, error) {
	table := cost.NewTable()
	st, err := deployment{
		n:       len(f.Comps),
		handler: shared(netsvc.NewAggBackend(f.Comps, netsvc.BackendOptions{IMaxFrac: costIMaxFrac})),
		server:  netsvc.ServerOptions{Workers: 1, QueueLen: 256},
		// Cost attribution rides tracing: the front server needs a
		// tracer so component spans come back costed.
		front: netsvc.ServerOptions{Tracer: obs.NewRecorder(64, 16)},
		costs: table,
	}.start()
	if err != nil {
		return cost.View{}, err
	}
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	i := 0
	for _, tenant := range costTenants {
		for l := range f.levelAcc {
			for c := 0; c < costCallsPerCell; c++ {
				req := aggRequest(f.queries[i%len(f.queries)])
				i++
				req.Level = int16(l)
				if err := st.issue(ctx, req, stamp{slo: frontend.BoundedSLO(0), tenant: tenant}, nil).failed(); err != nil {
					return cost.View{}, fmt.Errorf("costcompare: %s level %d: %w", tenant, l, err)
				}
			}
		}
	}
	return table.Snapshot(), nil
}

// runProfilerPhase induces a sustained SLO burn (every Exact-class
// request missing its deadline — burn 1000x budget) and asserts the
// watching profiler fires once, cools down, and re-arms.
func (cc *CostCompare) runProfilerPhase() error {
	tr := obs.NewSLOTracker(obs.DefaultSLOBudgets())
	for i := 0; i < 50; i++ {
		tr.Record(wire.SLOExact, "", obs.SLODeadlineMiss)
	}
	prof := obs.NewProfiler(4, costProfCPUDur, costProfCooldown)
	// Fake cooldown clock: real time drives the watcher ticker and the
	// CPU capture; the clock only decides when the cooldown has passed.
	base := time.Now()
	var skew atomic.Int64
	prof.SetClock(func() time.Time { return base.Add(time.Duration(skew.Load())) })

	stop := prof.WatchBurn(tr, time.Millisecond)
	defer stop()
	seen := func(cond func(obs.ProfilerView) bool) bool {
		return waitFor(func() bool { return cond(prof.Snapshot()) }, 10*time.Second)
	}
	// Fire once...
	if !seen(func(v obs.ProfilerView) bool { return v.Triggered >= 1 }) {
		return fmt.Errorf("costcompare: profiler never fired on a 1000x burn")
	}
	// ...then cool down: the watcher keeps evaluating every millisecond
	// against the same burning tracker, and every re-trigger must be
	// suppressed until the clock moves.
	if !seen(func(v obs.ProfilerView) bool { return v.SuppressedCooldown >= 5 }) {
		return fmt.Errorf("costcompare: no cooldown suppressions under a sustained burn: %+v", prof.Snapshot())
	}
	mid := prof.Snapshot()
	if mid.Triggered != 1 {
		return fmt.Errorf("costcompare: %d captures inside the cooldown window, want exactly 1", mid.Triggered)
	}
	// ...then re-arm once the cooldown has elapsed.
	skew.Store(int64(costProfCooldown + time.Second))
	refired := seen(func(v obs.ProfilerView) bool { return v.Triggered >= 2 })
	stop()
	prof.Wait()
	end := prof.Snapshot()
	reason, heapOK := "", false
	for _, p := range end.Profiles {
		reason = p.Reason
		if p.HeapBytes > 0 {
			heapOK = true
		}
	}
	cc.promise("profiler", refired && end.Triggered == 2 &&
		mid.SuppressedCooldown >= 5 && heapOK && strings.HasPrefix(reason, "slo-burn"),
		"fired %d (want 2: once + re-arm), %d re-triggers suppressed by cooldown, reason %q, heap captured %v",
		end.Triggered, mid.SuppressedCooldown, reason, heapOK)
	return nil
}

// Render formats the validation report.
func (cc *CostCompare) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "COSTCOMPARE: cost attribution plane over loopback TCP (%d component servers, %d ladder levels)\n\n",
		cc.Servers, cc.Levels)
	cc.renderContracts(&b)

	b.WriteString("\nReading: every answered request carries its own bill — component exec time, scan units, queue\n")
	b.WriteString("time and wire bytes folded from span costs into a per-(tenant, class, workload, level) table —\n")
	b.WriteString("so \"who is spending our capacity, and on what accuracy\" is a table lookup, not a forensic\n")
	b.WriteString("exercise. The conservation and exact-sum contracts keep the meter honest; the frontier join\n")
	b.WriteString("turns it into the live accuracy-vs-cost trade-off curve the paper's ladder promises; and when\n")
	b.WriteString("an SLO burns or a breaker opens, the profiler captures the evidence once, immediately, and\n")
	b.WriteString("without becoming its own overload.\n")
	return b.String()
}
