package experiments

import (
	"fmt"
	"strings"
	"time"

	"accuracytrader/internal/cost"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
)

// The costcompare experiment (observability extension, not a paper
// figure) validates the cost attribution plane end to end on the real
// networked stack: per-request resource accounts folded from component
// span costs, a sharded per-(tenant, class, workload, level) table,
// and the accuracy-vs-cost frontier joined from measured accuracy. Its
// contracts (EXPERIMENTS.md § costcompare): child costs conserving a
// bounded share of parent wall time; per-tenant rows summing exactly to
// the totals; and a monotone accuracy-vs-cost frontier. Zero cost when
// off is cost.TestNilAccountDoesNotAllocate's promise, and a profiler
// that fires once per sustained burn, cools down and re-arms
// obs.TestProfilerWatchBurnPolls's.
const (
	// costIMaxFrac caps Algorithm 1's improvement phase so coarse
	// ladder levels stay genuinely cheaper: an unloaded backend would
	// otherwise improve every answer back to an exact scan, collapsing
	// the per-level cost differences the frontier is built from.
	costIMaxFrac = 0.01
	// costCallsPerCell is how many Bounded requests each
	// (tenant, level) cell receives.
	costCallsPerCell = 4
	// costShareFloor / costShareCeilPerShard bound the conservation contract: child
	// exec+queue time as a fraction of parent wall time must exceed the
	// floor (the accounts are not empty) and stay under ceil × shards
	// (sub-operations run inside the parent's window, so each shard can
	// contribute at most ~one wall's worth, plus timing jitter).
	costShareFloor        = 1e-4
	costShareCeilPerShard = 1.25
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

	// (1)-(3) share one metered loopback stack: costCallsPerCell Bounded
	// requests into every (tenant, ladder level) cell in turn.
	table := cost.NewTable()
	st, err := deployment{
		n:       len(f.Comps),
		handler: shared(netsvc.NewAggBackend(f.Comps, netsvc.BackendOptions{IMaxFrac: costIMaxFrac})),
		server:  netsvc.ServerOptions{Workers: 1, QueueLen: 256},
		// Cost attribution rides tracing: the front server needs a
		// tracer so component spans come back costed.
		front: &netsvc.ServerOptions{Tracer: obs.NewRecorder(64, 16), Costs: table},
	}.start()
	if err != nil {
		return nil, err
	}
	_, err = load{n: len(costTenants) * levels * costCallsPerCell, timeout: 30 * time.Second,
		request: func(r int, _ time.Time) ask {
			req := AggRequest(f.queries[r%len(f.queries)])
			req.Level = int16(r / costCallsPerCell % levels)
			return ask{req: req, stamp: stamp{slo: frontend.BoundedSLO(0), tenant: costTenants[r/(costCallsPerCell*levels)]}}
		}}.run(st.target, nil)
	st.Close()
	if err != nil {
		return nil, fmt.Errorf("costcompare: %w", err)
	}
	v := table.Snapshot()
	calls, wantRows := len(costTenants)*levels*costCallsPerCell, len(costTenants)*levels

	// (1) Conservation: the folded child costs explain a bounded,
	// nonzero share of the parents' wall time.
	share, ceil := 0.0, costShareCeilPerShard*float64(cc.Servers)
	if v.Global.WallNs > 0 {
		share = float64(v.Global.CPUNs+v.Global.QueueNs) / float64(v.Global.WallNs)
	}
	cc.promise("conservation", v.Global.Scanned > 0 && v.Global.WireBytes > 0 &&
		share >= costShareFloor && share <= ceil,
		"component exec+queue explain %.3fx of parent wall time (want within [%g, %.2f])",
		share, costShareFloor, ceil)

	// (2) Tenant attribution: rows sum to the global totals exactly.
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

	// (3) Frontier: join the table's measured per-level scan costs with
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
	return cc, nil
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
	b.WriteString("turns it into the live accuracy-vs-cost trade-off curve the paper's ladder promises.\n")
	return b.String()
}
