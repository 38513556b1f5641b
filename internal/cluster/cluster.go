package cluster

import (
	"fmt"
	"math"
	"sort"

	"accuracytrader/internal/des"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/stats"
)

// Technique selects the simulated processing behaviour.
type Technique int

// The compared techniques of paper §4.1.
const (
	Basic Technique = iota
	Reissue
	AccuracyTrader
)

// String returns the paper's name for the technique.
func (t Technique) String() string {
	switch t {
	case Basic:
		return "Basic"
	case Reissue:
		return "Request reissue"
	case AccuracyTrader:
		return "AccuracyTrader"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// WorkModel gives the simulator a component's data volumes in abstract
// work units (one unit = one original data point scanned).
type WorkModel struct {
	FullUnits     float64 // scan the whole subset (exact processing)
	SynopsisUnits float64 // scan the synopsis
	NumGroups     int     // ranked member sets available for improvement
	// SynopsisLadder, when non-empty, lists alternative synopsis sizes
	// (work units, ascending = coarse to fine) for the load-adaptive
	// extension: under pressure the component answers from a coarser
	// synopsis (see Config.AdaptiveSynopsis).
	SynopsisLadder []float64
}

// MeanSetUnits returns the average improvement cost of one ranked set.
// The R-tree is depth-balanced, so sets have similar sizes (paper §2.2).
func (w WorkModel) MeanSetUnits() float64 {
	if w.NumGroups == 0 {
		return 0
	}
	return w.FullUnits / float64(w.NumGroups)
}

// Config parametrizes one simulation run.
type Config struct {
	Components int       // number of parallel components (paper: 108)
	Arrivals   []float64 // request arrival times in ms, ascending
	// Work describes each component's data (len must equal Components, or
	// 1 to share a model across components).
	Work []WorkModel
	// UnitCostMs is the time to scan one work unit at speed 1.
	UnitCostMs float64
	// Slowdown returns node c's slowdown factor at time t (nil = none).
	Slowdown func(c int, t float64) float64
	// Technique selects the processing behaviour.
	Technique Technique
	// DeadlineMs is l_spe for AccuracyTrader (and the composition deadline
	// evaluated for Partial execution). Paper: 100 ms.
	DeadlineMs float64
	// IMaxFrac caps the fraction of ranked sets AccuracyTrader may process
	// (paper: 1.0 for the recommender, 0.4 for the search engine).
	// 0 means 1.0.
	IMaxFrac float64
	// HedgeFloorMs is the minimum hedge delay for Reissue before the
	// latency estimator warms up.
	HedgeFloorMs float64
	// AdaptiveSynopsis enables the load-adaptive extension for
	// AccuracyTrader: when a sub-operation has already burned more than
	// half its deadline queueing, the component answers from the coarsest
	// ladder level that still fits, instead of the fixed synopsis.
	AdaptiveSynopsis bool
	// Frontend, when non-nil, puts the simulated accuracy-aware
	// frontend in front of the components: admission, replica routing,
	// and per-request ladder-level degradation (see FrontendConfig).
	// A request's frontend-selected level overrides AdaptiveSynopsis.
	Frontend *FrontendConfig
}

func (c Config) validate() error {
	if c.Components <= 0 {
		return fmt.Errorf("cluster: no components")
	}
	if len(c.Work) != c.Components && len(c.Work) != 1 {
		return fmt.Errorf("cluster: %d work models for %d components", len(c.Work), c.Components)
	}
	if c.UnitCostMs <= 0 {
		return fmt.Errorf("cluster: non-positive unit cost")
	}
	for i := 1; i < len(c.Arrivals); i++ {
		if c.Arrivals[i] < c.Arrivals[i-1] {
			return fmt.Errorf("cluster: arrivals not sorted at %d", i)
		}
	}
	return nil
}

func (c Config) work(comp int) WorkModel {
	if len(c.Work) == 1 {
		return c.Work[0]
	}
	return c.Work[comp]
}

// SubOp is the outcome of one sub-operation (request x component).
type SubOp struct {
	LatencyMs     float64 // completion - request arrival (first replica for Reissue)
	SetsProcessed int     // AccuracyTrader: ranked sets improved
	SynopsisOnly  bool    // AccuracyTrader: no set fit the budget
	Hedged        bool    // Reissue: a replica was issued
}

// Result holds the outcome of a run.
type Result struct {
	Arrivals []float64
	// Ops[r][c] is the sub-operation of request r on data subset c.
	// Without a frontend, subset c always executes on component c.
	Ops [][]SubOp

	// The remaining fields are populated only when Config.Frontend is
	// set (len equals len(Arrivals)).

	// Rejected marks requests shed by admission; their Ops rows are
	// zero-valued and must be excluded from latency populations.
	Rejected []bool
	// Class is each request's (possibly downgraded) SLO class.
	Class []frontend.SLO
	// Level is the ladder level the frontend selected for the request
	// (coarse 0 … fine Levels-1), or -1 for rejected requests and runs
	// without a degradation controller.
	Level []int
}

// ComponentLatencies returns every sub-operation latency in one slice —
// the population over which the paper's 99.9th-percentile component
// latency is computed. Requests shed by the frontend have no
// sub-operations and are excluded.
func (r *Result) ComponentLatencies() []float64 {
	if len(r.Ops) == 0 {
		return nil
	}
	out := make([]float64, 0, len(r.Ops)*len(r.Ops[0]))
	for i, ops := range r.Ops {
		if r.rejected(i) {
			continue
		}
		for _, op := range ops {
			out = append(out, op.LatencyMs)
		}
	}
	return out
}

// rejected reports whether request i was shed by the frontend.
func (r *Result) rejected(i int) bool {
	return r.Rejected != nil && r.Rejected[i]
}

// ServiceLatencies returns per-request service latency under the given
// composition semantics: with waitAll the composer answers when the last
// component does (Basic, Reissue, AccuracyTrader); otherwise it answers
// at the deadline or earlier if every component finished before it
// (Partial execution). Requests shed by the frontend were never
// answered and report NaN.
func (r *Result) ServiceLatencies(waitAll bool, deadlineMs float64) []float64 {
	out := make([]float64, len(r.Ops))
	for i, ops := range r.Ops {
		if r.rejected(i) {
			out[i] = math.NaN()
			continue
		}
		max := 0.0
		for _, op := range ops {
			if op.LatencyMs > max {
				max = op.LatencyMs
			}
		}
		if !waitAll && max > deadlineMs {
			max = deadlineMs
		}
		out[i] = max
	}
	return out
}

// CompletedFraction returns, for request r, the fraction of components
// whose sub-operation finished within the deadline — what Partial
// execution composes from. A request shed by the frontend completed
// nothing and returns 0.
func (res *Result) CompletedFraction(r int, deadlineMs float64) float64 {
	if res.rejected(r) {
		return 0
	}
	n := 0
	for _, op := range res.Ops[r] {
		if op.LatencyMs <= deadlineMs {
			n++
		}
	}
	return float64(n) / float64(len(res.Ops[r]))
}

// subop is the in-flight state of one sub-operation replica.
type subop struct {
	req      int
	comp     int // component executing this replica
	subset   int // data subset being processed (differs from comp for routed/hedged replicas)
	arrival  float64
	finished *bool // shared between primary and replica
	level    int   // frontend-selected ladder level, -1 when unset
	exact    bool  // frontend Exact SLO: full scan regardless of technique
}

// component is a FIFO single-server queue.
type component struct {
	queue []subop
	busy  bool
}

// Run simulates the configured workload and returns per-sub-operation
// outcomes. The simulation is deterministic for a given configuration.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.IMaxFrac <= 0 || cfg.IMaxFrac > 1 {
		cfg.IMaxFrac = 1
	}
	if cfg.HedgeFloorMs <= 0 {
		cfg.HedgeFloorMs = 1
	}
	slowdown := cfg.Slowdown
	if slowdown == nil {
		slowdown = func(int, float64) float64 { return 1 }
	}

	sim := des.New()
	n := cfg.Components
	comps := make([]component, n)
	res := &Result{
		Arrivals: cfg.Arrivals,
		Ops:      make([][]SubOp, len(cfg.Arrivals)),
	}
	for r := range res.Ops {
		res.Ops[r] = make([]SubOp, n)
	}
	hedge := newHedgeEstimator(cfg.HedgeFloorMs)
	var fe *frontendSim
	if cfg.Frontend != nil {
		res.Rejected = make([]bool, len(cfg.Arrivals))
		res.Class = make([]frontend.SLO, len(cfg.Arrivals))
		res.Level = make([]int, len(cfg.Arrivals))
		var err error
		if fe, err = newFrontendSim(cfg, comps, hedge); err != nil {
			return nil, err
		}
	}

	// serviceTime computes how long the sub-operation occupies the server
	// when it starts executing at time start, and its set count.
	serviceTime := func(op subop, start float64) (dur float64, sets int, synOnly bool) {
		w := cfg.work(op.subset)
		speed := slowdown(op.comp, start)
		unit := cfg.UnitCostMs * speed
		if op.exact {
			// Frontend Exact SLO: the component scans its whole subset
			// no matter the technique — exactness is a guarantee paid
			// for in latency.
			return w.FullUnits * unit, 0, false
		}
		switch cfg.Technique {
		case AccuracyTrader:
			synUnits := w.SynopsisUnits
			switch {
			case op.level >= 0 && len(w.SynopsisLadder) > 0:
				// The frontend picked a ladder level at admission time
				// (coarse 0 … fine len-1).
				idx := op.level
				if idx >= len(w.SynopsisLadder) {
					idx = len(w.SynopsisLadder) - 1
				}
				synUnits = w.SynopsisLadder[idx]
			case cfg.AdaptiveSynopsis && len(w.SynopsisLadder) > 0:
				synUnits = adaptiveSynopsisUnits(w, start-op.arrival, cfg.DeadlineMs, unit)
			}
			synTime := synUnits * unit
			elapsed := start - op.arrival + synTime
			setTime := w.MeanSetUnits() * unit
			imax := int(cfg.IMaxFrac * float64(w.NumGroups))
			sets := 0
			// Algorithm 1's loop under the cost model: keep improving
			// while the elapsed service time stays below the deadline.
			for sets < imax && elapsed < cfg.DeadlineMs {
				elapsed += setTime
				sets++
			}
			return synTime + float64(sets)*setTime, sets, sets == 0
		default: // Basic, Reissue: exact full scan
			return w.FullUnits * unit, 0, false
		}
	}

	var start func(c int)
	finishOne := func(op subop, t float64, sets int, synOnly bool) {
		if *op.finished {
			return // the other replica won
		}
		*op.finished = true
		lat := t - op.arrival
		so := &res.Ops[op.req][op.subset]
		so.LatencyMs = lat
		so.SetsProcessed = sets
		so.SynopsisOnly = synOnly
		hedge.record(lat)
		if fe != nil {
			fe.finished(op.req)
		}
	}
	start = func(c int) {
		comp := &comps[c]
		if comp.busy || len(comp.queue) == 0 {
			return
		}
		comp.busy = true
		op := comp.queue[0]
		comp.queue = comp.queue[1:]
		if *op.finished {
			// The other replica already completed; skip the work.
			comp.busy = false
			start(c)
			return
		}
		dur, sets, synOnly := serviceTime(op, sim.Now())
		sim.After(dur, func() {
			finishOne(op, sim.Now(), sets, synOnly)
			comp.busy = false
			start(c)
		})
	}
	enqueue := func(op subop) {
		comps[op.comp].queue = append(comps[op.comp].queue, op)
		start(op.comp)
	}

	for r, at := range cfg.Arrivals {
		r, at := r, at
		sim.At(at, func() {
			level, exact := -1, false
			if fe != nil {
				if !fe.admit(sim.Now(), r, n, res) {
					return // shed before touching any queue
				}
				level = res.Level[r]
				exact = res.Class[r].Kind == frontend.Exact
			}
			for c := 0; c < n; c++ {
				comp := c
				if fe != nil {
					comp = fe.route(c)
				}
				op := subop{req: r, comp: comp, subset: c, arrival: at,
					finished: new(bool), level: level, exact: exact}
				enqueue(op)
				if cfg.Technique == Reissue {
					scheduleHedge(sim, cfg, hedge, res, op, enqueue)
				}
			}
		})
	}
	sim.Run()
	return res, nil
}

// adaptiveSynopsisUnits picks the finest ladder level whose processing
// still fits half of the remaining deadline budget, falling back to the
// coarsest level when even that does not fit — the component must always
// process at least one synopsis to produce a result.
func adaptiveSynopsisUnits(w WorkModel, waited, deadlineMs, unitMs float64) float64 {
	remaining := deadlineMs - waited
	best := w.SynopsisLadder[0]
	for _, units := range w.SynopsisLadder {
		if units*unitMs <= remaining/2 && units > best {
			best = units
		}
	}
	return best
}

// scheduleHedge arms the reissue timer for a sub-operation: when it is
// still outstanding after the estimated p95 latency, a replica is sent to
// another component (paper §4.1, request reissue).
func scheduleHedge(sim *des.Sim, cfg Config, h *hedgeEstimator, res *Result, op subop, enqueue func(subop)) {
	delay := h.p95()
	sim.After(delay, func() {
		if *op.finished {
			return
		}
		replica := op
		replica.comp = (op.comp + 1) % cfg.Components // subset c's replica lives on the next component
		res.Ops[op.req][op.subset].Hedged = true
		enqueue(replica)
	})
}

// hedgeEstimator tracks a sliding sample of sub-operation latencies and
// serves their 95th percentile, mirroring how reissue implementations
// estimate "the expected latency for this class of sub-operations".
type hedgeEstimator struct {
	floor   float64
	buf     []float64
	idx     int
	cached  float64
	pending int
}

func newHedgeEstimator(floor float64) *hedgeEstimator {
	return &hedgeEstimator{floor: floor, cached: floor, buf: make([]float64, 0, 2048)}
}

func (h *hedgeEstimator) record(lat float64) {
	if len(h.buf) < cap(h.buf) {
		h.buf = append(h.buf, lat)
	} else {
		h.buf[h.idx] = lat
		h.idx = (h.idx + 1) % len(h.buf)
	}
	h.pending++
	if h.pending >= 256 || (len(h.buf) < 256 && h.pending >= 32) {
		h.refresh()
	}
}

func (h *hedgeEstimator) refresh() {
	h.pending = 0
	cp := append([]float64(nil), h.buf...)
	sort.Float64s(cp)
	p := stats.PercentileSorted(cp, 95)
	if math.IsNaN(p) || p < h.floor {
		p = h.floor
	}
	h.cached = p
}

func (h *hedgeEstimator) p95() float64 { return h.cached }
