package frontend

import (
	"fmt"
	"sync"
)

// SLOKind classifies a request's accuracy/latency contract.
type SLOKind int

// The request classes, BlinkDB-style: Exact requests never degrade,
// Bounded requests accept any synopsis level whose estimated accuracy
// stays above a floor, BestEffort requests take whatever the current
// load dictates.
const (
	Exact SLOKind = iota
	Bounded
	BestEffort
)

// String returns the class name.
func (k SLOKind) String() string {
	switch k {
	case Exact:
		return "Exact"
	case Bounded:
		return "Bounded"
	default:
		return "BestEffort"
	}
}

// SLO is a per-request service-level objective.
type SLO struct {
	Kind SLOKind
	// MinAccuracy is the accuracy floor in [0,1] for Bounded requests;
	// ignored for the other kinds.
	MinAccuracy float64
}

// ExactSLO requires the finest processing regardless of load.
func ExactSLO() SLO { return SLO{Kind: Exact} }

// BoundedSLO accepts degradation down to an estimated accuracy floor.
func BoundedSLO(minAccuracy float64) SLO {
	return SLO{Kind: Bounded, MinAccuracy: minAccuracy}
}

// BestEffortSLO accepts whatever level the current load dictates.
func BestEffortSLO() SLO { return SLO{Kind: BestEffort} }

// String renders the SLO for reports.
func (s SLO) String() string {
	if s.Kind == Bounded {
		return fmt.Sprintf("Bounded{%.2f}", s.MinAccuracy)
	}
	return s.Kind.String()
}

// ControllerConfig parametrizes the degradation controller.
type ControllerConfig struct {
	// Levels is the number of ladder levels, coarse (0) to fine
	// (Levels-1), matching synopsis.Ladder's cut order. Required ≥ 1.
	Levels int
	// LevelAccuracy estimates the delivered accuracy of each level in
	// [0,1], coarse to fine. Defaults to a linear ramp ending at 1 —
	// replace it with measured per-level accuracy when available.
	LevelAccuracy []float64
	// Alpha is the EWMA weight of the newest load sample (default 0.3).
	Alpha float64
	// InflightSaturation is the in-flight request count treated as
	// load 1 (default 64).
	InflightSaturation int
}

// Controller is the degradation controller: it smooths Load snapshots
// into a scalar load estimate and maps (load, SLO) to the ladder level
// a request should be served from. Safe for concurrent use.
type Controller struct {
	mu   sync.Mutex
	cfg  ControllerConfig
	load float64
}

// NewController validates the config and returns an idle controller.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.Levels < 1 {
		return nil, fmt.Errorf("frontend: controller needs >= 1 level, got %d", cfg.Levels)
	}
	if cfg.LevelAccuracy == nil {
		cfg.LevelAccuracy = make([]float64, cfg.Levels)
		for i := range cfg.LevelAccuracy {
			cfg.LevelAccuracy[i] = float64(i+1) / float64(cfg.Levels)
		}
	}
	if len(cfg.LevelAccuracy) != cfg.Levels {
		return nil, fmt.Errorf("frontend: %d accuracy estimates for %d levels", len(cfg.LevelAccuracy), cfg.Levels)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.3
	}
	if cfg.InflightSaturation < 1 {
		cfg.InflightSaturation = 64
	}
	return &Controller{cfg: cfg}, nil
}

// rawLoad collapses a snapshot to a scalar in [0,1]: the most
// saturated of the three pressure signals (queue depth, concurrency,
// tail latency) — whichever resource is the bottleneck drives
// degradation.
func (c *Controller) rawLoad(l Load) float64 {
	load := l.MaxQueueFrac
	if f := float64(l.Inflight) / float64(c.cfg.InflightSaturation); f > load {
		load = f
	}
	if l.LatencyFrac > load {
		load = l.LatencyFrac
	}
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}
	return load
}

// Observe folds one snapshot into the EWMA estimate and returns the
// smoothed load.
func (c *Controller) Observe(l Load) float64 {
	raw := c.rawLoad(l)
	c.mu.Lock()
	c.load = c.cfg.Alpha*raw + (1-c.cfg.Alpha)*c.load
	load := c.load
	c.mu.Unlock()
	return load
}

// Load returns the current smoothed load estimate in [0,1].
func (c *Controller) Load() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.load
}

// RefreshLoadCeiling is the smoothed load above which background exact
// recomputation — cache refresh, post-swap re-warm, audit replay — is
// deferred entirely.
const RefreshLoadCeiling = 0.7

// RefreshAllowed is the gate of every background exact recomputation:
// low priority means not even attempting one while the smoothed load
// says the service is busy (the admission chain still has the final say
// below the gate).
func (c *Controller) RefreshAllowed() bool { return c.Load() < RefreshLoadCeiling }

// Levels returns the configured ladder depth.
func (c *Controller) Levels() int { return c.cfg.Levels }

// LevelAccuracy returns the estimated delivered accuracy of a level
// (clamped into range).
func (c *Controller) LevelAccuracy(level int) float64 {
	if level < 0 {
		level = 0
	}
	if level >= c.cfg.Levels {
		level = c.cfg.Levels - 1
	}
	return c.cfg.LevelAccuracy[level]
}

// LevelFor maps the current load and a request's SLO to the ladder
// level to serve it from, mirroring synopsis.Ladder.Select's load→cut
// mapping: load 0 picks the finest level, load 1 the coarsest. Exact
// requests always get the finest level; Bounded requests never go
// coarser than the finest level whose estimated accuracy still meets
// their floor.
func (c *Controller) LevelFor(slo SLO) int {
	levels := c.cfg.Levels
	finest := levels - 1
	if slo.Kind == Exact {
		return finest
	}
	idx := int((1 - c.Load()) * float64(levels))
	if idx > finest {
		idx = finest
	}
	if idx < 0 {
		idx = 0
	}
	if slo.Kind == Bounded {
		floor := finest
		for i := 0; i < levels; i++ {
			if c.cfg.LevelAccuracy[i] >= slo.MinAccuracy {
				floor = i
				break
			}
		}
		if idx < floor {
			idx = floor
		}
	}
	return idx
}
