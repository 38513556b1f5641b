package audit

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/obs"
)

// Mode selects how a sample's realized accuracy is computed.
type Mode uint8

const (
	// ModeRelErr scores element-wise mean relative error against the
	// exact values (agg estimates, cf predictions): realized accuracy
	// is 1 - meanRelErr, mirroring agg.Accuracy's semantics.
	ModeRelErr Mode = iota
	// ModeOverlap scores set recall (search result doc IDs): realized
	// accuracy is |approx ∩ exact| / |exact|.
	ModeOverlap
)

// ClassBounded is the wire SLO code for Bounded requests — the only
// class with a floor to violate.
const ClassBounded = 1

// replayTimeout bounds one exact replay.
const replayTimeout = 2 * time.Second

// Sample is one answered request captured for ground-truth replay.
// Estimates (and, when the workload ships them, Bounds — per-estimate
// CLT half-widths) are the approximate answer as the client saw it;
// Payload carries whatever the runtime's Replay hook needs to recompute
// the request exactly (typically the decoded request).
type Sample struct {
	TraceID         uint64
	Workload        string
	Class           uint8
	Level           int16
	MinAccuracy     float64
	ClaimedAccuracy float64
	Epoch           uint64
	Tenant          string
	Mode            Mode
	Estimates       []float64
	Bounds          []float64
	Payload         any
}

// Verdict is the outcome of auditing one sample.
type Verdict struct {
	// RealizedAccuracy is ground truth: 1 - meanRelErr (ModeRelErr) or
	// recall (ModeOverlap) against the exact replay.
	RealizedAccuracy float64
	// AccuracyGap is claimed - realized: positive means the system
	// over-promised.
	AccuracyGap float64
	// BoundsTotal / BoundsCovered count the claimed CLT bounds checked
	// and how many contained the exact value.
	BoundsTotal   int
	BoundsCovered int
	// FloorViolated is true when a Bounded request's realized accuracy
	// fell below its floor.
	FloorViolated bool
}

// Config parameterizes an Auditor. Replay is the only required field.
type Config struct {
	// SampleFraction of answered requests to audit, in [0,1] (New
	// refuses others). Defaults to 0.05; 1 audits everything offered.
	SampleFraction float64
	// QueueLen bounds the pending-sample queue (default 256). A full
	// queue drops the sample — auditing is best-effort by design.
	QueueLen int
	// Interval paces replays (default 5ms between audits).
	Interval time.Duration
	// Gate, when set, must return true for a replay to run — wire the
	// controller's load ceiling here so audits never compete with
	// foreground traffic. A closed gate requeues the sample.
	Gate func() bool
	// Epoch, when set, returns the live data epoch. Samples whose
	// stamped epoch no longer matches are skipped (stale), both before
	// and after the replay — never audit against newer data.
	Epoch func() uint64
	// Replay recomputes the sample's request exactly and returns the
	// exact values in the same shape as Sample.Estimates.
	Replay func(ctx context.Context, s *Sample) ([]float64, error)
	// OnVerdict, when set, observes every verdict (pin traces, bump
	// SLO floor violations, upgrade cache entries).
	OnVerdict func(s *Sample, v Verdict)
	// Metrics, when set, receives the auditor's counters.
	Metrics *obs.Registry
}

// Stats is the auditor's accounting. Every sampled request lands in
// exactly one of the other buckets once the auditor is closed:
// sampled = audited + skippedStale + replayErrs + dropped.
type Stats struct {
	Sampled      int64 `json:"sampled"`
	Audited      int64 `json:"audited"`
	SkippedStale int64 `json:"skipped_stale_epoch"`
	ReplayErrs   int64 `json:"replay_errors"`
	Dropped      int64 `json:"dropped"`
	Violations   int64 `json:"floor_violations"`
}

// Auditor owns the sampling decision, the pending queue, and the
// background replay worker. A nil *Auditor is a valid no-op receiver:
// ShouldSample reports false and Submit reports false, so the disabled
// path costs nothing and call sites need no branches.
type Auditor struct {
	cfg       Config
	threshold uint64 // sample iff hash(id) < threshold
	fallback  atomic.Uint64

	queue chan *Sample
	quit  chan struct{}
	wg    sync.WaitGroup

	mu     sync.RWMutex // guards closed (write: Close) and tables
	closed bool
	tables map[tableKey]*table

	sampled      obs.Counter
	audited      obs.Counter
	skippedStale obs.Counter
	replayErrs   obs.Counter
	dropped      obs.Counter
	violations   obs.Counter
}

// ErrNoReplay rejects a Config without a Replay hook.
var ErrNoReplay = errors.New("audit: Config.Replay is required")

// ErrSampleFraction rejects a Config whose SampleFraction is outside
// [0,1] (or NaN).
var ErrSampleFraction = errors.New("audit: Config.SampleFraction must be in [0,1]")

// New starts an auditor and its background worker.
func New(cfg Config) (*Auditor, error) {
	if cfg.Replay == nil {
		return nil, ErrNoReplay
	}
	if !(cfg.SampleFraction >= 0 && cfg.SampleFraction <= 1) {
		return nil, ErrSampleFraction
	}
	if cfg.SampleFraction == 0 {
		cfg.SampleFraction = 0.05
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	a := &Auditor{
		cfg:       cfg,
		threshold: sampleThreshold(cfg.SampleFraction),
		queue:     make(chan *Sample, cfg.QueueLen),
		quit:      make(chan struct{}),
		tables:    make(map[tableKey]*table),
	}
	if reg := cfg.Metrics; reg != nil {
		reg.GaugeFunc("audit_sampled_total", counterGauge(&a.sampled))
		reg.GaugeFunc("audit_audited_total", counterGauge(&a.audited))
		reg.GaugeFunc("audit_skipped_stale_epoch_total", counterGauge(&a.skippedStale))
		reg.GaugeFunc("audit_replay_errors_total", counterGauge(&a.replayErrs))
		reg.GaugeFunc("audit_dropped_total", counterGauge(&a.dropped))
		reg.GaugeFunc("audit_floor_violations_total", counterGauge(&a.violations))
	}
	a.wg.Add(1)
	go a.worker()
	return a, nil
}

func counterGauge(c *obs.Counter) func() float64 {
	return func() float64 { return float64(c.Value()) }
}

// sampleThreshold maps a fraction to the hash-space cut point.
func sampleThreshold(frac float64) uint64 {
	if frac >= 1 {
		return ^uint64(0)
	}
	return uint64(frac * math.MaxUint64)
}

// hash64 is the splitmix64 finalizer — a cheap, well-mixed bijection,
// so any fraction of the ID space samples uniformly.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShouldSample deterministically decides whether the request with this
// trace ID is audited. Every process holding the same ID agrees, so a
// request is never double-audited across replicas. id 0 (tracing off)
// substitutes a local counter so sampling still works untraced.
// Allocation-free; false on a nil auditor.
func (a *Auditor) ShouldSample(id uint64) bool {
	if a == nil || a.threshold == 0 {
		return false
	}
	if a.threshold == ^uint64(0) {
		return true
	}
	if id == 0 {
		id = a.fallback.Add(1) * 0x9e3779b97f4a7c15
	}
	return hash64(id) < a.threshold
}

// Submit enqueues a sampled request for replay. Reports false when the
// queue is full or the auditor is closed (the sample is counted
// dropped). Safe to call concurrently with Close.
func (a *Auditor) Submit(s *Sample) bool {
	if a == nil || s == nil {
		return false
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	a.sampled.Inc()
	if a.closed {
		a.dropped.Inc()
		return false
	}
	select {
	case a.queue <- s:
		return true
	default:
		a.dropped.Inc()
		return false
	}
}

// Close stops the worker, draining the queue into the dropped count so
// the accounting stays exact. Idempotent; safe during live Submits.
func (a *Auditor) Close() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	close(a.quit)
	a.wg.Wait()
	for {
		select {
		case <-a.queue:
			a.dropped.Inc()
		default:
			return
		}
	}
}

// worker mirrors the rescache refresh loop: pull one sample, audit it
// (requeueing while the load gate is closed), then pace.
func (a *Auditor) worker() {
	defer a.wg.Done()
	for {
		select {
		case <-a.quit:
			return
		case s := <-a.queue:
			a.auditOne(s)
		}
		select {
		case <-a.quit:
			return
		case <-time.After(a.cfg.Interval):
		}
	}
}

func (a *Auditor) auditOne(s *Sample) {
	if a.cfg.Gate != nil && !a.cfg.Gate() {
		// Foreground is busy: requeue without blocking and let the
		// pacing delay back off. A full queue drops the sample.
		select {
		case a.queue <- s:
		default:
			a.dropped.Inc()
		}
		return
	}
	if a.cfg.Epoch != nil && a.cfg.Epoch() != s.Epoch {
		a.skippedStale.Inc()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), replayTimeout)
	exact, err := a.cfg.Replay(ctx, s)
	cancel()
	if err != nil {
		a.replayErrs.Inc()
		return
	}
	if a.cfg.Epoch != nil && a.cfg.Epoch() != s.Epoch {
		// The data epoch swapped mid-replay: the "exact" answer was
		// computed against newer data than the original reply saw.
		a.skippedStale.Inc()
		return
	}
	v := Judge(s, exact)
	a.audited.Inc()
	if v.FloorViolated {
		a.violations.Inc()
	}
	a.record(s, v)
	if a.cfg.OnVerdict != nil {
		a.cfg.OnVerdict(s, v)
	}
}

// Judge scores a sample against its exact replay values. Exported so
// tests and experiments can score without a live worker.
func Judge(s *Sample, exact []float64) Verdict {
	var realized float64
	switch s.Mode {
	case ModeOverlap:
		realized = overlapRecall(s.Estimates, exact)
	default:
		realized = 1 - meanRelErr(s.Estimates, exact)
	}
	v := Verdict{
		RealizedAccuracy: realized,
		AccuracyGap:      s.ClaimedAccuracy - realized,
	}
	if len(s.Bounds) > 0 {
		n := len(s.Bounds)
		if len(s.Estimates) < n {
			n = len(s.Estimates)
		}
		if len(exact) < n {
			n = len(exact)
		}
		for i := 0; i < n; i++ {
			v.BoundsTotal++
			eps := 1e-9 * math.Max(1, math.Abs(exact[i]))
			if math.Abs(s.Estimates[i]-exact[i]) <= s.Bounds[i]+eps {
				v.BoundsCovered++
			}
		}
	}
	v.FloorViolated = s.Class == ClassBounded && s.MinAccuracy > 0 &&
		realized < s.MinAccuracy
	return v
}

// meanRelErr mirrors agg.Accuracy's error semantics: per-element
// relative error capped at 1, 0 when both are zero, 1 when only the
// exact value is zero; elements present on one side only count as
// error 1.
func meanRelErr(approx, exact []float64) float64 {
	n := len(approx)
	if len(exact) > n {
		n = len(exact)
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		if i >= len(approx) || i >= len(exact) {
			sum += 1
			continue
		}
		a, e := approx[i], exact[i]
		switch {
		case e == 0 && a == 0:
			// exact: no error
		case e == 0:
			sum += 1
		default:
			re := math.Abs(a-e) / math.Abs(e)
			if re > 1 {
				re = 1
			}
			sum += re
		}
	}
	return sum / float64(n)
}

// overlapRecall treats both slices as ID sets and returns
// |approx ∩ exact| / |exact| (1 when exact is empty).
func overlapRecall(approx, exact []float64) float64 {
	if len(exact) == 0 {
		return 1
	}
	set := make(map[float64]struct{}, len(approx))
	for _, id := range approx {
		set[id] = struct{}{}
	}
	hit := 0
	for _, id := range exact {
		if _, ok := set[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// Stats returns the auditor's accounting counters (zero for nil).
func (a *Auditor) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	return Stats{
		Sampled:      a.sampled.Value(),
		Audited:      a.audited.Value(),
		SkippedStale: a.skippedStale.Value(),
		ReplayErrs:   a.replayErrs.Value(),
		Dropped:      a.dropped.Value(),
		Violations:   a.violations.Value(),
	}
}

// Drain blocks until the queue is empty and the last pulled sample has
// been processed, or the timeout elapses. Test helper: real deployments
// just let the worker run.
func (a *Auditor) Drain(timeout time.Duration) bool {
	if a == nil {
		return true
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if len(a.queue) == 0 {
			st := a.Stats()
			if st.Sampled == st.Audited+st.SkippedStale+st.ReplayErrs+st.Dropped {
				return true
			}
		}
		time.Sleep(time.Millisecond)
	}
	return false
}
