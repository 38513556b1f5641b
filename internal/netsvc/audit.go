package netsvc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// EnableSLO installs the SLO attainment tracker: every answered
// whole-service request is recorded with its class, deadline outcome
// and degradation outcome. tenantOf, when non-nil, keys the per-tenant
// dimension (return "" for untenanted requests); a nil tenantOf uses
// the request's wire Tenant field. Call before Serve.
func (s *FrontServer) EnableSLO(t *obs.SLOTracker, tenantOf func(*wire.Request) string) {
	s.slo = t
	s.tenantOf = tenantOf
}

// SLOTracker returns the installed tracker (nil when disabled).
func (s *FrontServer) SLOTracker() *obs.SLOTracker { return s.slo }

// EnableAudit starts the ground-truth auditor behind this front server.
// Unset Config hooks are wired to the server itself: Replay recomputes
// the sampled request at Exact class through the same pipeline
// (admission included, so audits yield to foreground traffic — and a
// successful replay upgrades a still-cached entry for free), Gate holds
// replays below the controller's refresh load ceiling, and Epoch tracks
// the ingest-driven data epoch so a sample is never audited against
// newer data than its answer saw. Call before Serve; the caller owns
// Close on the returned auditor.
func (s *FrontServer) EnableAudit(cfg audit.Config) (*audit.Auditor, error) {
	if cfg.Replay == nil {
		cfg.Replay = s.auditReplay
	}
	if cfg.Gate == nil && s.fe != nil && s.fe.Controller() != nil {
		ctrl := s.fe.Controller()
		cfg.Gate = func() bool { return ctrl.Load() < frontend.RefreshLoadCeiling }
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
	a, err := audit.New(cfg)
	if err != nil {
		return nil, err
	}
	s.auditor = a
	return a, nil
}

// Auditor returns the enabled auditor (nil when disabled).
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
func (s *FrontServer) maybeAudit(req *wire.Request, rep *wire.Reply, acc float64, epoch uint64) {
	if s.auditor == nil || rep.Cached || rep.Status != wire.ReplyOK || req.SLO == wire.SLOExact {
		return
	}
	id := rep.Trace
	if id == 0 {
		id = req.ID
	}
	if !s.auditor.ShouldSample(id) {
		return
	}
	if s.dataEpoch.Load() != epoch {
		return
	}
	smp := s.buildSample(req, rep, acc, epoch, id)
	if smp != nil {
		s.auditor.Submit(smp)
	}
}

// sloClassOf collapses the wire class byte to the tracker's 0/1/2
// space (SLONone states no contract and accounts as BestEffort).
func sloClassOf(class uint8) uint8 {
	if class > wire.SLOBestEffort {
		return wire.SLOBestEffort
	}
	return class
}

// buildSample captures the approximate answer in auditable shape. The
// decoded request is retained as the replay payload — requests are
// decoded fresh per frame, so nothing else aliases it after the reply
// is written.
func (s *FrontServer) buildSample(req *wire.Request, rep *wire.Reply, acc float64, epoch uint64, id uint64) *audit.Sample {
	smp := &audit.Sample{
		TraceID:         id,
		Class:           sloClassOf(req.SLO),
		Level:           rep.Level,
		MinAccuracy:     req.MinAccuracy,
		ClaimedAccuracy: acc,
		Epoch:           epoch,
		Payload:         req,
	}
	smp.Tenant = s.tenantFor(req)
	switch req.Kind {
	case wire.KindAgg:
		if rep.Agg == nil || req.Agg == nil {
			return nil
		}
		smp.Workload, smp.Mode = "agg", audit.ModeRelErr
		res := AggResultOf(rep.Agg)
		op := agg.Op(req.Agg.Op)
		n := len(rep.Agg.Sum)
		smp.Estimates = make([]float64, n)
		smp.Bounds = make([]float64, n)
		for k := 0; k < n; k++ {
			smp.Estimates[k] = res.Estimate(op, k)
			smp.Bounds[k] = res.Bound(op, k)
		}
	case wire.KindCF:
		if rep.CF == nil || req.CF == nil {
			return nil
		}
		smp.Workload, smp.Mode = "cf", audit.ModeRelErr
		smp.Estimates = CFResultOf(rep.CF).Predictions(activeMeanOf(req.CF))
	case wire.KindSearch:
		if rep.Search == nil {
			return nil
		}
		smp.Workload, smp.Mode = "search", audit.ModeOverlap
		smp.Estimates = searchIDs(rep.Search)
	default:
		return nil
	}
	return smp
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
// same composition path the original answer took — the audit.Config
// Replay hook. A successful replay also upgrades the request's cache
// entry in place (if it is still cached), so audits double as free
// refreshes.
func (s *FrontServer) auditReplay(ctx context.Context, smp *audit.Sample) ([]float64, error) {
	req, ok := smp.Payload.(*wire.Request)
	if !ok {
		return nil, errors.New("netsvc: audit sample payload is not a request")
	}
	exact := *req
	exact.SLO, exact.MinAccuracy = wire.SLOExact, 0
	exact.Level, exact.Deadline = wire.NoLevel, 0
	exact.Trace = 0
	// A replay is measurement, not service: it bypasses the serve path
	// that feeds SLO windows, and opens no cost account, so its fan-out
	// costs fold into nothing.
	var epoch uint64
	if s.cache != nil {
		epoch = s.cache.Epoch()
	}
	start := time.Now()
	tr := s.tracer.Start(0, start)
	if tr != nil {
		tr.SetRequest(uint8(exact.Kind), exact.SLO, 0, 0)
		tr.SetCacheOutcome(obs.CacheRefresh)
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	rep, _ := s.serveMiss(ctx, &exact)
	tr.Finish(time.Since(start))
	if rep.Status != wire.ReplyOK || !allOK(rep.SubStatus) {
		return nil, fmt.Errorf("netsvc: audit replay not exact: status %d (%s)", rep.Status, rep.Err)
	}
	if s.cache != nil {
		stored := *rep
		stored.ID = 0
		s.cache.UpgradeIfPresent(s.cacheKey(req), req, &stored, 1, epoch)
	}
	return exactValuesOf(req, rep, smp)
}

// exactValuesOf extracts the replay's values in the sample's shape.
func exactValuesOf(req *wire.Request, rep *wire.Reply, smp *audit.Sample) ([]float64, error) {
	switch req.Kind {
	case wire.KindAgg:
		if rep.Agg == nil {
			return nil, errors.New("netsvc: audit replay returned no agg result")
		}
		return AggResultOf(rep.Agg).Estimates(agg.Op(req.Agg.Op)), nil
	case wire.KindCF:
		if rep.CF == nil {
			return nil, errors.New("netsvc: audit replay returned no cf result")
		}
		return CFResultOf(rep.CF).Predictions(activeMeanOf(req.CF)), nil
	case wire.KindSearch:
		if rep.Search == nil {
			return nil, errors.New("netsvc: audit replay returned no search result")
		}
		return searchIDs(rep.Search), nil
	}
	return nil, fmt.Errorf("netsvc: audit replay: unknown kind %d", req.Kind)
}

// recordSLO accounts one answered request with the tracker. Kept
// allocation-free for known tenants (the common case): flags are
// computed from facts already in hand.
func (s *FrontServer) recordSLO(req *wire.Request, rep *wire.Reply, start time.Time, dur time.Duration) {
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
	s.slo.Record(sloClassOf(req.SLO), s.tenantFor(req), flags)
}
