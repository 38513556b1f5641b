package netsvc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// auditConfig wires cfg's unset hooks to the server: Replay recomputes
// the sample at Exact class through the same pass (admission included;
// a successful replay upgrades a still-cached entry), Gate holds replays
// below the controller's refresh ceiling, and Epoch tracks the ingest
// data epoch, so a sample is never audited against newer data than its
// answer saw. cfg's OnVerdict runs after the server's own.
func (s *FrontServer) auditConfig(cfg audit.Config) audit.Config {
	if cfg.Replay == nil {
		cfg.Replay = s.auditReplay
	}
	if cfg.Gate == nil && s.fe.Controller() != nil {
		cfg.Gate = s.fe.Controller().RefreshAllowed
	}
	if cfg.Epoch == nil {
		cfg.Epoch = s.DataEpoch
	}
	user := cfg.OnVerdict
	cfg.OnVerdict = func(smp *audit.Sample, v audit.Verdict) {
		s.onAuditVerdict(smp, v)
		if user != nil {
			user(smp, v)
		}
	}
	return cfg
}

// Auditor returns the server's auditor (nil when disabled).
func (s *FrontServer) Auditor() *audit.Auditor { return s.auditor }

// auditMismatchSlack is how far claimed accuracy may exceed realized
// before the trace is pinned as an audit mismatch. CLT bounds are
// probabilistic, so an individual miss within this slack is expected
// noise, not evidence of a stale calibration.
const auditMismatchSlack = 0.05

// onAuditVerdict folds a verdict back into the observability plane:
// floor violations and over-promises pin the original trace as an
// anomaly exemplar, and floor violations land in the SLO tracker's
// after-the-fact dimension.
func (s *FrontServer) onAuditVerdict(smp *audit.Sample, v audit.Verdict) {
	var reason obs.AnomalyReason
	if v.FloorViolated {
		reason |= obs.AnomalyFloorViolation
	}
	if v.AccuracyGap > auditMismatchSlack {
		reason |= obs.AnomalyAuditMismatch
	}
	if reason != 0 {
		s.tracer.Pin(smp.TraceID, reason)
	}
	if v.FloorViolated {
		s.slo.RecordFloorViolation(smp.Class, smp.Tenant)
	}
}

// maybeAudit offers one freshly-answered request to the auditor. Only
// approximate-class OK answers from a real fan-out qualify, and only
// when the answer did not straddle a data-epoch swap. The non-sampled
// path is allocation-free: the sample is built after the hash decision.
func (s *FrontServer) maybeAudit(req *wire.Request, rep *wire.Reply, acc float64, epoch uint64, tenant string) {
	if s.auditor == nil || rep.Cached || rep.Status != wire.ReplyOK || req.SLO == wire.SLOExact {
		return
	}
	id := rep.Trace
	if id == 0 {
		id = req.ID
	}
	if !s.auditor.ShouldSample(id) || s.dataEpoch.Load() != epoch {
		return
	}
	// The approximate answer in auditable shape. The decoded request is
	// retained as the replay payload — requests are decoded fresh per
	// frame, so nothing else aliases it after the reply is written; the
	// job it was decoded into comes along, and has dropped its
	// connection by the time the job ends (job.finish).
	vals, bounds, ok := auditValues(req, rep, true)
	if !ok {
		return
	}
	smp := &audit.Sample{
		TraceID:         id,
		Workload:        req.Kind.String(),
		Class:           sloClassOf(req.SLO),
		Level:           rep.Level,
		MinAccuracy:     req.MinAccuracy,
		ClaimedAccuracy: acc,
		Epoch:           epoch,
		Tenant:          tenant,
		Mode:            audit.ModeRelErr,
		Estimates:       vals,
		Bounds:          bounds,
		Payload:         req,
	}
	if req.Kind == wire.KindSearch {
		smp.Mode = audit.ModeOverlap
	}
	s.auditor.Submit(smp)
}

// sloClassOf collapses the wire class byte to the tracker's 0/1/2
// space (SLONone states no contract and accounts as BestEffort).
func sloClassOf(class uint8) uint8 {
	if class > wire.SLOBestEffort {
		return wire.SLOBestEffort
	}
	return class
}

// auditValues extracts a reply's values in audit shape — per-key
// aggregate estimates (withBounds: and their CLT half-widths; an exact
// replay has none worth computing), CF predictions, or search doc IDs —
// for the sampled answer and its exact replay alike. ok is false when
// the reply carries no result of the request's kind.
func auditValues(req *wire.Request, rep *wire.Reply, withBounds bool) (vals, bounds []float64, ok bool) {
	switch req.Kind {
	case wire.KindAgg:
		if rep.Agg == nil || req.Agg == nil {
			return nil, nil, false
		}
		res, op, n := AggResultOf(rep.Agg), agg.Op(req.Agg.Op), len(rep.Agg.Sum)
		vals = res.EstimatesInto(make([]float64, 0, n), op)
		if withBounds {
			bounds = res.BoundsInto(make([]float64, 0, n), op)
		}
	case wire.KindCF:
		if rep.CF == nil || req.CF == nil {
			return nil, nil, false
		}
		vals = CFResultOf(rep.CF).Predictions(activeMeanOf(req.CF))
	case wire.KindSearch:
		if rep.Search == nil {
			return nil, nil, false
		}
		vals = searchIDs(rep.Search)
	default:
		return nil, nil, false
	}
	return vals, bounds, true
}

// activeMeanOf is the CF prediction baseline: the active user's mean
// known rating. Both the approximate answer and the exact replay are
// converted with the same baseline, so it cancels out of the error.
func activeMeanOf(cf *wire.CFRequest) float64 {
	if len(cf.Ratings) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range cf.Ratings {
		sum += r.Score
	}
	return sum / float64(len(cf.Ratings))
}

// searchIDs projects a hit list to its doc IDs (rank-insensitive: the
// audit scores recall, not ordering).
func searchIDs(res *wire.SearchResult) []float64 {
	ids := make([]float64, len(res.Hits))
	for i, h := range res.Hits {
		ids[i] = float64(h.Doc)
	}
	return ids
}

// auditReplay recomputes a sampled request at Exact class through the
// same pass the original answer took — the audit.Config Replay hook,
// whose context is the replay's timeout: its deadline bounds the pass. A
// successful replay also upgrades the request's cache entry in place
// (if it is still cached), so audits double as free refreshes.
func (s *FrontServer) auditReplay(ctx context.Context, smp *audit.Sample) ([]float64, error) {
	req, ok := smp.Payload.(*wire.Request)
	if !ok {
		return nil, errors.New("netsvc: audit sample payload is not a request")
	}
	var epoch uint64
	if s.cache != nil {
		epoch = s.cache.Epoch()
	}
	dl, _ := ctx.Deadline()
	j := internalJob(exactOf(req), dl)
	rep, _, _ := s.pass(j, originAudit)
	j.finish()
	kept := storable(rep)
	if kept == nil {
		return nil, fmt.Errorf("netsvc: audit replay not exact: status %d (%s)", rep.Status, rep.Err)
	}
	if s.cache != nil {
		s.cache.UpgradeIfPresent(s.cacheKey(req), req, kept, 1, epoch)
	}
	vals, _, ok := auditValues(req, rep, false)
	if !ok {
		return nil, fmt.Errorf("netsvc: audit replay returned no %s result", req.Kind)
	}
	return vals, nil
}

// recordSLO accounts one answered request with the tracker. Kept
// allocation-free for known tenants (the common case): flags are
// computed from facts already in hand.
func (s *FrontServer) recordSLO(req *wire.Request, rep *wire.Reply, tenant string, start time.Time, dur time.Duration) {
	if s.slo == nil {
		return
	}
	var flags obs.SLOFlags
	if req.Deadline != 0 && start.UnixNano()+int64(dur) > req.Deadline {
		flags |= obs.SLODeadlineMiss
	}
	if rep.Degraded || rep.Status == wire.ReplyDegraded || rep.Status == wire.ReplyUnavailable {
		flags |= obs.SLODegraded
	}
	s.slo.Record(sloClassOf(req.SLO), tenant, flags)
}
