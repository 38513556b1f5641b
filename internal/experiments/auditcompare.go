package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// The auditcompare experiment (observability extension, not a paper
// figure) validates the accuracy audit plane end to end on the real
// networked stack: a ground-truth auditor replaying answered requests
// at Exact class off the hot path, SLO burn-rate accounting, and
// tail-based trace retention. Its contracts (EXPERIMENTS.md §
// auditcompare): healthy bound coverage at the nominal confidence; a
// stale table detected within auditDetectK audits; drift safety across
// an ingest epoch swap; anomalous traces kept pinned. Zero cost when
// off or not sampled is audit.TestShouldSampleDoesNotAllocate's
// promise, and burn windows equal to a naive reference
// obs.TestSLOTrackerMatchesNaiveReference's.
const (
	// auditNominalConfidence is the CLT confidence the agg bounds claim
	// (z = 1.96): healthy coverage must not fall below it.
	auditNominalConfidence = 0.95
	// auditIMaxFrac caps Algorithm 1's improvement phase at one ranked
	// set so coarse-level answers stay genuinely approximate — with the
	// workload default (every set eligible) an unloaded backend improves
	// sampled strata all the way back to an exact scan, leaving the
	// auditor nothing to measure.
	auditIMaxFrac = 0.01
	// auditHealthyCalls / auditBiasCalls are the Bounded request counts
	// of the two calibration passes.
	auditHealthyCalls = 48
	auditBiasCalls    = 24
	// auditDetectK is the detection budget: a biased calibration must
	// surface as a floor violation within this many audited samples.
	auditDetectK = 10
	// auditHealthyFloor is the healthy pass's Bounded accuracy floor.
	// The bias pass's floor and its stale claim are derived from the
	// honest table (staleTable).
	auditHealthyFloor = 0.85
	// auditRetentionRing is the deliberately tiny trace ring of the
	// retention phase: healthy traffic must rotate anomalies out of it.
	auditRetentionRing = 8
	// auditDeadlineMs is the stamped service budget of the calibration
	// passes' Bounded requests (generous: no deadline pressure wanted).
	auditDeadlineMs = 250.0
)

// AuditCompare is the experiment result.
type AuditCompare struct {
	contracts
	Servers int

	// The bias pass's mean realized and claimed accuracy: a stale table
	// shows as the gap between them.
	BiasRealized float64
	BiasClaimed  float64
}

// RunAuditCompare runs the audit-plane validation at a scale.
func RunAuditCompare(sc Scale) (*AuditCompare, error) {
	f, err := aggFixture(sc, 0xa0d1, 16)
	if err != nil {
		return nil, err
	}
	biased, biasFloor := staleTable(f.levelAcc)
	ac := &AuditCompare{Servers: len(f.Comps)}

	// (1) Healthy pass: honest calibration, achievable floor.
	hp, err := runAuditedPass(f, f.levelAcc, auditHealthyFloor, auditHealthyCalls)
	if err != nil {
		return nil, err
	}
	var covered, bounds int64
	for _, tv := range hp.tables {
		covered += tv.BoundsCovered
		bounds += tv.BoundsTotal
	}
	coverage := 0.0
	if bounds > 0 {
		coverage = float64(covered) / float64(bounds)
	}
	realized, claimed := hp.means()
	ac.promise("calibration", hp.stats.Audited == auditHealthyCalls && bounds > 0 && coverage >= auditNominalConfidence,
		"honest table: %d/%d audited, bound coverage %.3f over %d bounds (nominal %.2f), realized %.3f vs claimed %.3f, %d floor violations",
		hp.stats.Audited, auditHealthyCalls, coverage, bounds, auditNominalConfidence, realized, claimed, hp.stats.Violations)

	// (2) Bias pass: a stale table claims a quarter of the best honest
	// level's error at every level, and Bounded{biasFloor} traffic — a
	// floor midway between that level's accuracy and the claim — lands
	// where load puts it. Every audit then measures realized accuracy under both the
	// claim and the floor, however good the honest ladder is: the gap
	// floor is the claim's margin over the floor, 3/8 of the honest
	// error.
	bp, err := runAuditedPass(f, biased, biasFloor, auditBiasCalls)
	if err != nil {
		return nil, err
	}
	ac.BiasRealized, ac.BiasClaimed = bp.means()
	gapFloor := biased[0] - biasFloor
	ac.promise("detection", bp.stats.Violations > 0 &&
		bp.detectAt > 0 && bp.detectAt <= auditDetectK &&
		bp.pinnedFloor == int(bp.stats.Violations) &&
		ac.BiasClaimed-ac.BiasRealized >= gapFloor,
		"stale table claiming %.4f: %d/%d audits violated the %.4f floor, first at audit #%d (budget %d), %d traces pinned; realized %.4f vs claimed %.4f (gap floor %.4f) — the audit gap IS the staleness",
		biased[0], bp.stats.Violations, bp.stats.Audited, biasFloor, bp.detectAt, auditDetectK, bp.pinnedFloor,
		ac.BiasRealized, ac.BiasClaimed, gapFloor)

	// (3) Drift: audits queued across an ingest-driven epoch swap must
	// be skipped stale, and post-swap answers must audit normally.
	if err := runDriftPhase(sc, f); err != nil {
		ac.promise("drift", false, "%v", err)
	} else {
		ac.promise("drift", true, "%d audits queued across an ingest epoch swap: %d skipped stale, %d post-swap audited",
			auditDriftPre, auditDriftPre, auditDriftPost)
	}

	// (4) Tail retention: anomalies survive a tiny rotating ring.
	return ac, ac.runRetentionPhase(f)
}

// auditPassResult carries one calibration pass's outcome.
type auditPassResult struct {
	stats       audit.Stats
	tables      []audit.TableView
	detectAt    int64 // audited samples when the first violation surfaced (0: never)
	pinnedFloor int   // exemplars carrying the floor-violation anomaly bit
}

// means returns the pass's mean realized and claimed accuracy over every
// audited sample.
func (r *auditPassResult) means() (realized, claimed float64) {
	var samples int64
	for _, tv := range r.tables {
		realized += tv.MeanRealized * float64(tv.Samples)
		claimed += tv.MeanClaimed * float64(tv.Samples)
		samples += tv.Samples
	}
	if samples == 0 {
		return 0, 0
	}
	return realized / float64(samples), claimed / float64(samples)
}

// runAuditedPass builds a fresh audited loopback stack over the
// fixture's components — claimed per-level accuracy as given — drives
// `calls` Bounded requests at `floor`, waits for every audit and its
// verdict pin to settle, and snapshots the auditor.
func runAuditedPass(f *aggFix, levelAcc []float64, floor float64, calls int) (*auditPassResult, error) {
	rec := obs.NewRecorder(2*calls, 32)
	// detectAt records the audited-sample index of the first floor
	// violation — the "within K samples" detection-latency measurement.
	var audited, detectAt atomic.Int64
	st, err := deployment{
		n:        len(f.Comps),
		handler:  shared(netsvc.NewAggBackend(f.Comps, netsvc.BackendOptions{IMaxFrac: auditIMaxFrac})),
		server:   netsvc.ServerOptions{Workers: 1, QueueLen: 256},
		levelAcc: levelAcc,
		front: &netsvc.ServerOptions{Tracer: rec, SLO: obs.NewSLOTracker(obs.DefaultSLOBudgets()), Audit: &audit.Config{
			SampleFraction: 1,
			Interval:       200 * time.Microsecond,
			Gate:           func() bool { return true }, // keep pacing deterministic at this load
			OnVerdict: func(_ *audit.Sample, v audit.Verdict) {
				i := audited.Add(1)
				if v.FloorViolated {
					detectAt.CompareAndSwap(0, i)
				}
			},
		}},
	}.start()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	auditor := st.Front.Auditor()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < calls; i++ {
		s := stamp{slo: frontend.BoundedSLO(floor), deadline: time.Now().Add(msDur(auditDeadlineMs))}
		if err := st.issue(ctx, AggRequest(f.queries[i%len(f.queries)]), s, nil).failed(); err != nil {
			return nil, fmt.Errorf("auditcompare: call %d: %w", i, err)
		}
	}
	if !auditor.Drain(20 * time.Second) {
		return nil, fmt.Errorf("auditcompare: auditor never drained: %+v", auditor.Stats())
	}
	res := &auditPassResult{stats: auditor.Stats(), tables: auditor.Tables()}

	// Drain returns once the counters balance; the final OnVerdict (and
	// its trace pin) may still be in flight on the worker. Poll briefly.
	waitFor(func() bool {
		res.pinnedFloor = 0
		for _, tv := range rec.Exemplars(0) {
			if tv.Anomaly&uint8(obs.AnomalyFloorViolation) != 0 {
				res.pinnedFloor++
			}
		}
		return audited.Load() >= res.stats.Audited && int64(res.pinnedFloor) >= res.stats.Violations
	}, 5*time.Second)
	res.detectAt = detectAt.Load()
	return res, nil
}

// The drift phase's audits queued before and answered after the swap.
const auditDriftPre, auditDriftPost = 3, 2

// runDriftPhase stages the shared fact shards into live stores, queues
// audits behind a closed gate, swaps the data epoch through the ingest
// path, and asserts the queued samples are skipped stale while
// post-swap answers audit normally.
func runDriftPhase(sc Scale, f *aggFix) error {
	lives := make([]*ingest.AggLive, 2)
	for i := range lives {
		l, err := StageAggLive(f.Data.Subsets[i%len(f.Data.Subsets)], sc.AggConfig())
		if err != nil {
			return err
		}
		lives[i] = l
	}
	var gateOpen atomic.Bool
	st, err := deployment{
		n: len(lives),
		handler: func(i int) netsvc.Handler {
			return netsvc.NewLiveAggBackend(lives[i:i+1], netsvc.BackendOptions{IMaxFrac: auditIMaxFrac})
		},
		lives: lives,
		front: &netsvc.ServerOptions{Tracer: obs.NewRecorder(32, 16),
			Audit: &audit.Config{SampleFraction: 1, Interval: 200 * time.Microsecond, Gate: gateOpen.Load}},
	}.start()
	if err != nil {
		return err
	}
	defer st.Close()
	auditor := st.Front.Auditor()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	calls := func(n int) error {
		for i := 0; i < n; i++ {
			req := AggRequest(agg.Query{Op: agg.Sum, Lo: 0, Hi: math.Inf(1)})
			req.Level = 0
			if err := st.issue(ctx, req, stamp{slo: frontend.BoundedSLO(0)}, nil).failed(); err != nil {
				return fmt.Errorf("drift call: %w", err)
			}
		}
		return nil
	}
	// Queue auditDriftPre audits behind the closed gate.
	if err := calls(auditDriftPre); err != nil {
		return err
	}
	// Drift arrives through the write path: the append's acknowledgement
	// carries the staging epoch, which the front server folds in as an
	// observed swap — every queued sample is now stale.
	before := st.Front.DataEpoch()
	ack, err := st.Client.Ingest(ctx, &wire.IngestRequest{
		Kind: wire.KindAgg, Subset: 0,
		Agg: &wire.AggIngest{Keys: []int32{0, 1}, Vals: []float64{5, 7}},
	})
	if err != nil {
		return err
	}
	if ack.Status != wire.IngestOK {
		return fmt.Errorf("drift ingest status %d (%s)", ack.Status, ack.Err)
	}
	if st.Front.DataEpoch() == before {
		return fmt.Errorf("ingest ack (epoch %d) did not advance the observed data epoch %d", ack.Epoch, before)
	}
	gateOpen.Store(true)
	if !auditor.Drain(10 * time.Second) {
		return fmt.Errorf("drift drain: %+v", auditor.Stats())
	}
	if s := auditor.Stats(); s.Audited != 0 || s.SkippedStale != auditDriftPre {
		return fmt.Errorf("pre-swap samples not skipped stale: %+v", s)
	}
	// Requests answered entirely after the swap audit normally.
	if err := calls(auditDriftPost); err != nil {
		return err
	}
	if !auditor.Drain(10 * time.Second) {
		return fmt.Errorf("post-swap drain: %+v", auditor.Stats())
	}
	s := auditor.Stats()
	if s.Audited != auditDriftPost {
		return fmt.Errorf("post-swap samples not audited: %+v", s)
	}
	if s.Sampled != s.Audited+s.SkippedStale+s.ReplayErrs+s.Dropped {
		return fmt.Errorf("audit accounting broken: %+v", s)
	}
	return nil
}

// runRetentionPhase drives degraded replies through a deliberately tiny
// trace ring, then floods it with healthy traffic: the anomalies must
// survive in the exemplar store after rotating out of the ring.
func (ac *AuditCompare) runRetentionPhase(f *aggFix) error {
	const anomalous, healthy = 4, 3 * auditRetentionRing
	inner := netsvc.NewAggBackend(f.Comps, netsvc.BackendOptions{IMaxFrac: auditIMaxFrac})
	var lose atomic.Bool
	rec := obs.NewRecorder(auditRetentionRing, 16)
	slo := obs.NewSLOTracker(obs.DefaultSLOBudgets())
	st, err := deployment{
		n: 2,
		handler: func(i int) netsvc.Handler {
			if i != 0 {
				return inner
			}
			// Fault injection on shard 0: while lose is set, its
			// sub-operations fail and BestEffort answers degrade.
			return func(ctx context.Context, req *wire.Request) *wire.SubReply {
				if lose.Load() {
					return &wire.SubReply{Status: wire.StatusErr, Err: "auditcompare: injected fault"}
				}
				return inner(ctx, req)
			}
		},
		front: &netsvc.ServerOptions{Tracer: rec, SLO: slo},
	}.start()
	if err != nil {
		return err
	}
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	call := func() (outcome, error) {
		o := st.issue(ctx, AggRequest(agg.Query{Op: agg.Sum, Lo: 0, Hi: math.Inf(1)}), stamp{slo: frontend.BestEffortSLO()}, nil)
		if o.err == nil && !wire.ReplyCarriesPayload(o.status) {
			o.err = fmt.Errorf("retention call status %d (%s)", o.status, o.rep.Err)
		}
		return o, o.err
	}

	// Degraded phase: shard 0 is down, BestEffort serves around it.
	lose.Store(true)
	anomalyIDs := make(map[uint64]bool, anomalous)
	for i := 0; i < anomalous; i++ {
		o, err := call()
		if err != nil {
			return err
		}
		if !o.rep.Degraded && o.status != wire.ReplyDegraded {
			return fmt.Errorf("faulted reply not degraded: %+v", o.rep)
		}
		if o.rep.Trace == 0 {
			return fmt.Errorf("degraded reply carries no trace ID")
		}
		anomalyIDs[o.rep.Trace] = true
	}
	lose.Store(false)

	// Healthy flood: 3x the ring, rotating the anomalies out of it.
	for i := 0; i < healthy; i++ {
		if _, err := call(); err != nil {
			return err
		}
	}
	inRing, pinned := 0, 0
	for _, tv := range rec.Snapshot(0) {
		if anomalyIDs[tv.ID] {
			inRing++
		}
	}
	for _, tv := range rec.Exemplars(0) {
		if anomalyIDs[tv.ID] && tv.Anomaly&uint8(obs.AnomalyDegraded) != 0 {
			pinned++
		}
	}
	_, _, _, deg := slo.Window(wire.SLOBestEffort, 2)
	ac.promise("retention", len(anomalyIDs) == anomalous && pinned == anomalous && inRing == 0 && deg == anomalous,
		"%d degraded replies through a %d-slot ring + %d healthy: %d pinned as exemplars, %d left in ring (want 0), SLO degraded %d",
		len(anomalyIDs), auditRetentionRing, healthy, pinned, inRing, deg)
	return nil
}

// Render formats the validation report.
func (ac *AuditCompare) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AUDITCOMPARE: accuracy audit plane over loopback TCP (%d component servers)\n\n", ac.Servers)
	ac.renderContracts(&b)
	b.WriteString("\nReading: the auditor replays a sampled fraction of answered requests at Exact class, off the hot\n")
	b.WriteString("path and gated on foreground load, so ground truth is measured continuously without touching\n")
	b.WriteString("tail latency. A healthy calibration shows CLT bound coverage at or above the nominal confidence;\n")
	b.WriteString("a stale table shows up as a realized-vs-claimed gap and floor violations within a handful of\n")
	b.WriteString("audited samples — long before users could report it. The epoch guard keeps the measurement\n")
	b.WriteString("honest under live ingest (never audit yesterday's answer against today's data), and anomalous\n")
	b.WriteString("traces are pinned outside the rotating ring so the request that violated its floor an hour ago\n")
	b.WriteString("is still inspectable at /traces?filter=anomaly.\n")
	return b.String()
}

// staleTable derives the bias pass's stale calibration from the honest
// one: with best the most accurate honest level, every level claims
// 1 − (1 − best)/4 — a quarter of the error the ladder really makes,
// wherever load puts the traffic — and the Bounded floor sits midway
// between best and that claim, above every level's honest accuracy. So
// the scenario stays a stale table at any seed or scale: a fixed
// near-exact claim over a ladder that reads 0.98 would hide only 0.02
// of error, and a fixed floor under it would see no violation.
func staleTable(honest []float64) (claims []float64, floor float64) {
	best := slices.Max(honest)
	claim := 1 - (1-best)/4
	claims = make([]float64, len(honest))
	for l := range claims {
		claims[l] = claim
	}
	return claims, (best + claim) / 2
}
