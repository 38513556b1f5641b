package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing" // AllocsPerRun: the cost-off zero-allocation guard
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// The costcompare experiment (observability extension, not a paper
// figure) validates the cost attribution plane end to end on the real
// networked stack: per-request resource accounts folded from component
// span costs, a sharded per-(tenant, class, workload, level) table,
// the accuracy-vs-cost frontier joined from measured accuracy, and the
// anomaly-triggered profiler. Five contracts are asserted —
//
//  1. zero cost when off: with no account on the context, the serving
//     path's accounting calls allocate nothing and no-op;
//  2. cost conservation: summed child costs (component exec + queue
//     time) explain a bounded, nonzero share of the parent requests'
//     wall time — neither vanishing nor exceeding the fan-out width;
//  3. tenant attribution: per-(tenant, level) rows sum to the global
//     totals exactly — the same integers feed both sides, so metering
//     is lossless, not approximately reconciled;
//  4. frontier monotonicity: joining the measured per-level scan costs
//     with measured per-level accuracy yields a Pareto frontier where
//     paying more always buys more accuracy;
//  5. profiler hygiene: under a sustained SLO burn the profiler fires
//     exactly once, suppresses every re-trigger through the cooldown,
//     and re-arms after it.
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

	// Zero-cost contract.
	DisabledAllocs float64

	// Attribution pass.
	Calls     int
	Rows      int
	WantRows  int
	WorkShare float64 // (CPU+queue) / wall over the global totals
	ShareCeil float64

	// Frontier join.
	FrontierPoints    int
	FrontierDominated int
	FrontierSpread    float64 // scanned ratio, most/least expensive point

	// Profiler phase.
	ProfTriggered  int64
	ProfSuppressed int64
	ProfRefired    bool
	ProfReason     string
	ProfHeapOK     bool
}

// RunCostCompare runs the cost-plane validation at a scale.
func RunCostCompare(sc Scale) (*CostCompare, error) {
	svc, err := BuildAggService(sc)
	if err != nil {
		return nil, err
	}
	queries := svc.Data.SampleAggQueries(sc.Seed^0xc057, 16)
	levels := svc.Comps[0].Syn.Levels()
	cc := &CostCompare{Servers: len(svc.Comps), Levels: levels}

	// (1) Zero cost when off: no account on the context means every
	// accounting call is a nil-receiver no-op.
	ctx := context.Background()
	cc.DisabledAllocs = testing.AllocsPerRun(1000, func() {
		acct := cost.AccountFrom(ctx)
		acct.Add(cost.Usage{CPUNs: 1, Scanned: 2})
		acct.AddWireBytes(64)
	})
	cc.promise("zero-cost", cc.DisabledAllocs == 0 || raceEnabled,
		"cost-off accounting path %.1f allocs/op (%s)", cc.DisabledAllocs, wantZeroAllocs())

	// (2)-(4) share one metered loopback stack.
	v, err := runCostPass(svc, queries, levels)
	if err != nil {
		return nil, err
	}
	cc.Calls = len(costTenants) * levels * costCallsPerCell
	cc.Rows = len(v.Rows)
	cc.WantRows = len(costTenants) * levels

	// (2) Conservation: the folded child costs explain a bounded,
	// nonzero share of the parents' wall time.
	work := v.Global.CPUNs + v.Global.QueueNs
	if v.Global.WallNs > 0 {
		cc.WorkShare = float64(work) / float64(v.Global.WallNs)
	}
	cc.ShareCeil = costShareCeilPerShard * float64(cc.Servers)
	cc.promise("conservation", v.Global.Scanned > 0 && v.Global.WireBytes > 0 &&
		cc.WorkShare >= costShareFloor && cc.WorkShare <= cc.ShareCeil,
		"component exec+queue explain %.3fx of parent wall time (want within [%g, %.2f])",
		cc.WorkShare, costShareFloor, cc.ShareCeil)

	// (3) Tenant attribution: rows sum to the global totals exactly.
	var sum cost.Usage
	var sumReq uint64
	for _, r := range v.Rows {
		sum = sum.Add(r.Totals)
		sumReq += r.Requests
	}
	cc.promise("attribution", cc.Rows == cc.WantRows &&
		sum == v.Global && sumReq == v.Requests && v.Requests == uint64(cc.Calls),
		"%d calls over %d tenants: %d/%d rows, per-tenant sums must equal global totals exactly",
		cc.Calls, len(costTenants), cc.Rows, cc.WantRows)

	// (4) Frontier: join the table's measured per-level scan costs with
	// the measured per-level accuracy and require a monotone Pareto
	// curve of at least two points.
	var pts []cost.AccuracyPoint
	for l := 0; l < levels; l++ {
		pts = append(pts, cost.AccuracyPoint{
			Workload: "agg", Level: int16(l),
			Accuracy: agg.MeasureLevelAccuracy(svc.Comps, queries, l),
			Samples:  costCallsPerCell,
		})
	}
	curves := cost.Frontier(v, pts)
	frontierOK := len(curves) == 1 && curves[0].Workload == "agg"
	if frontierOK {
		c := curves[0]
		cc.FrontierPoints = len(c.Points)
		cc.FrontierDominated = len(c.Dominated)
		frontierOK = len(c.Points) >= 2 &&
			len(c.Points)+len(c.Dominated) == levels
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Scanned <= c.Points[i-1].Scanned ||
				c.Points[i].Accuracy <= c.Points[i-1].Accuracy {
				frontierOK = false
			}
		}
		if n := len(c.Points); n >= 2 && c.Points[0].Scanned > 0 {
			cc.FrontierSpread = c.Points[n-1].Scanned / c.Points[0].Scanned
		}
	}
	cc.promise("frontier", frontierOK,
		"%d Pareto points (+%d dominated) of %d levels, scanned spread %.1fx; accuracy must strictly increase with cost over >= 2 points",
		cc.FrontierPoints, cc.FrontierDominated, cc.Levels, cc.FrontierSpread)

	// (5) Profiler hygiene under a sustained burn.
	if err := cc.runProfilerPhase(); err != nil {
		return nil, err
	}
	return cc, nil
}

// runCostPass builds a metered loopback stack over the shared
// components and drives costCallsPerCell Bounded requests into every
// (tenant, ladder level) cell, then snapshots the cost table.
func runCostPass(svc *AggService, queries []agg.Query, levels int) (cost.View, error) {
	backend := netsvc.NewAggBackend(svc.Comps, netsvc.BackendOptions{IMaxFrac: costIMaxFrac})
	table := cost.NewTable()
	lb, err := netsvc.StartLoopback(netsvc.LoopbackSpec{
		Components: len(svc.Comps),
		Handler:    func(int) netsvc.Handler { return backend },
		Server:     netsvc.ServerOptions{Workers: 1, QueueLen: 256},
		Agg:        gatherAll,
		Front: func(agr *netsvc.Aggregator) (*netsvc.FrontServer, error) {
			// Cost attribution rides tracing: the front server needs a
			// tracer so component spans come back costed.
			fs := netsvc.NewFrontServer(agr, nil, netsvc.ServerOptions{Tracer: obs.NewRecorder(64, 16)})
			return fs, fs.EnableCost(table)
		},
	})
	if err != nil {
		return cost.View{}, err
	}
	defer lb.Close()
	cl := lb.Client

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	i := 0
	for _, tenant := range costTenants {
		for l := 0; l < levels; l++ {
			for c := 0; c < costCallsPerCell; c++ {
				q := queries[i%len(queries)]
				i++
				req := aggRequest(q)
				req.SLO, req.Level, req.Tenant = wire.SLOBounded, int16(l), tenant
				rep, err := cl.Call(ctx, req)
				if err != nil {
					return cost.View{}, err
				}
				if rep.Status != wire.ReplyOK {
					return cost.View{}, fmt.Errorf("costcompare: %s level %d call status %d (%s)", tenant, l, rep.Status, rep.Err)
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
	waitFor := func(cond func(obs.ProfilerView) bool) bool {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond(prof.Snapshot()) {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}
	// Fire once...
	if !waitFor(func(v obs.ProfilerView) bool { return v.Triggered >= 1 }) {
		return fmt.Errorf("costcompare: profiler never fired on a 1000x burn")
	}
	// ...then cool down: the watcher keeps evaluating every millisecond
	// against the same burning tracker, and every re-trigger must be
	// suppressed until the clock moves.
	if !waitFor(func(v obs.ProfilerView) bool { return v.SuppressedCooldown >= 5 }) {
		return fmt.Errorf("costcompare: no cooldown suppressions under a sustained burn: %+v", prof.Snapshot())
	}
	mid := prof.Snapshot()
	cc.ProfSuppressed = mid.SuppressedCooldown
	if mid.Triggered != 1 {
		return fmt.Errorf("costcompare: %d captures inside the cooldown window, want exactly 1", mid.Triggered)
	}
	// ...then re-arm once the cooldown has elapsed.
	skew.Store(int64(costProfCooldown + time.Second))
	cc.ProfRefired = waitFor(func(v obs.ProfilerView) bool { return v.Triggered >= 2 })
	stop()
	prof.Wait()
	end := prof.Snapshot()
	cc.ProfTriggered = end.Triggered
	for _, p := range end.Profiles {
		cc.ProfReason = p.Reason
		if p.HeapBytes > 0 {
			cc.ProfHeapOK = true
		}
	}
	cc.promise("profiler", cc.ProfRefired && end.Triggered == 2 &&
		cc.ProfSuppressed >= 5 && cc.ProfHeapOK &&
		strings.HasPrefix(cc.ProfReason, "slo-burn"),
		"fired %d (want 2: once + re-arm), %d re-triggers suppressed by cooldown, reason %q, heap captured %v",
		cc.ProfTriggered, cc.ProfSuppressed, cc.ProfReason, cc.ProfHeapOK)
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
