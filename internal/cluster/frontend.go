package cluster

import (
	"fmt"

	"accuracytrader/internal/frontend"
)

// FrontendConfig models the accuracy-aware frontend (internal/frontend)
// inside the simulator: the live frontend's own Options — admission,
// replica routing with its defaults, the degradation controller — are
// evaluated here against the virtual clock, at fan-out widths and
// arrival rates the live runtime can't reach. Requests pass admission →
// replica routing → per-component FIFO queues; under load the
// controller selects coarser ladder levels per request instead of
// letting queues grow without bound. A nil Controller disables
// degradation (components use their fixed synopsis); Metrics is not
// read.
type FrontendConfig struct {
	frontend.Options
	// QueueCap is the per-component queue bound used to normalise
	// queue-depth fractions for admission and the controller
	// (default 64).
	QueueCap int
	// ClassOf assigns request r its SLO class (default: BestEffort for
	// every request).
	ClassOf func(req int) frontend.SLO
}

// frontendSim is the simulated frontend's runtime state.
type frontendSim struct {
	cfg        FrontendConfig
	rmap       frontend.ReplicaMap
	comps      []component
	hedge      *hedgeEstimator
	deadlineMs float64
	inflight   int
	remaining  []int // outstanding sub-operations per admitted request
}

func newFrontendSim(cfg Config, comps []component, hedge *hedgeEstimator) (*frontendSim, error) {
	fc := *cfg.Frontend
	fc.Options = fc.Options.WithDefaults()
	if fc.QueueCap <= 0 {
		fc.QueueCap = 64
	}
	if fc.ClassOf == nil {
		fc.ClassOf = func(int) frontend.SLO { return frontend.BestEffortSLO() }
	}
	if fc.Controller != nil && cfg.Technique != AccuracyTrader {
		// Levels would be recorded on the Result but never served —
		// exact techniques always do full scans.
		return nil, fmt.Errorf("cluster: frontend degradation requires Technique AccuracyTrader, got %v", cfg.Technique)
	}
	if fc.Controller != nil {
		for i := range cfg.Work {
			if len(cfg.Work[i].SynopsisLadder) == 0 {
				return nil, fmt.Errorf("cluster: frontend degradation needs a SynopsisLadder in every work model")
			}
			if got := len(cfg.Work[i].SynopsisLadder); got != fc.Controller.Levels() {
				return nil, fmt.Errorf("cluster: controller has %d levels but work model %d has a %d-level ladder",
					fc.Controller.Levels(), i, got)
			}
		}
	}
	return &frontendSim{
		cfg:        fc,
		rmap:       frontend.NewReplicaMap(cfg.Components, fc.Replicas),
		comps:      comps,
		hedge:      hedge,
		deadlineMs: cfg.DeadlineMs,
		remaining:  make([]int, len(cfg.Arrivals)),
	}, nil
}

// depth is the routing/admission load probe: queued plus in-service
// sub-operations on one component.
func (fe *frontendSim) depth(c int) int {
	d := len(fe.comps[c].queue)
	if fe.comps[c].busy {
		d++
	}
	return d
}

// admit runs one arrival through the frontend's decision (admission
// and level selection), recording the outcome on the result. It
// returns false for shed requests.
func (fe *frontendSim) admit(nowMs float64, req, n int, res *Result) bool {
	slo := fe.cfg.ClassOf(req)
	load := frontend.FoldLoad(len(fe.comps), fe.cfg.QueueCap, fe.inflight, fe.depth, fe.hedge.p95(), fe.deadlineMs)
	slo, level, _, rejected := frontend.Decide(nowMs, load, fe.cfg.Admission, fe.cfg.Controller, slo)
	res.Class[req], res.Level[req] = slo, level
	if rejected {
		res.Rejected[req] = true
		return false
	}
	fe.inflight++
	fe.remaining[req] = n
	return true
}

// route picks the component serving one subset, falling back to home
// placement for out-of-range router picks (as the live runtime does).
func (fe *frontendSim) route(subset int) int {
	if c := fe.cfg.Router.Pick(subset, fe.rmap.Replicas(subset), fe.depth); c >= 0 && c < len(fe.comps) {
		return c
	}
	return subset
}

// finished records one completed sub-operation and releases the
// request's in-flight slot when its last sub-operation lands.
func (fe *frontendSim) finished(req int) {
	fe.remaining[req]--
	if fe.remaining[req] == 0 {
		fe.inflight--
	}
}
