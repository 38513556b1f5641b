package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing" // AllocsPerRun: the non-sampled hot-path zero-allocation guard
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// The auditcompare experiment (observability extension, not a paper
// figure) validates the accuracy audit plane end to end on the real
// networked stack: a ground-truth auditor replaying answered requests
// at Exact class off the hot path, SLO burn-rate accounting, and
// tail-based trace retention. Five contracts are asserted —
//
//  1. zero cost when off: the disabled auditor and the non-sampled
//     hot path (auditing enabled, request not chosen) allocate nothing;
//  2. healthy calibration: with an honest accuracy table, the audited
//     CLT bound coverage sits at or above the nominal confidence;
//  3. bias detection: with a stale calibration table that over-claims
//     the coarse ladder levels, the auditor reports floor violations
//     within auditDetectK audited samples and pins the original traces;
//  4. drift safety: samples answered before an ingest-driven epoch
//     swap are skipped stale, never audited against newer data;
//  5. burn rates and retention: the SLO tracker's sliding windows
//     match a naive re-scanning reference exactly, and every
//     anomalous trace stays pinned while healthy traces rotate out.
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
	// auditHealthyFloor / auditBiasFloor are the Bounded accuracy
	// floors. The bias floor is chosen above the coarse levels' realized
	// accuracy, so a table that over-claims them turns every audited
	// sample into a violation.
	auditHealthyFloor = 0.85
	auditBiasFloor    = 0.95
	// auditBiasClaim is the stale table's inflated per-level accuracy
	// claim: every ladder level pretends to be near-exact, so the
	// controller routes Bounded traffic to the coarsest (cheapest) one.
	auditBiasClaim = 0.999
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

	// Zero-cost contracts.
	DisabledAllocs   float64 // nil auditor: ShouldSample + Submit
	NotSampledAllocs float64 // live auditor, request not chosen

	// Healthy pass (honest calibration).
	HealthyCalls    int
	HealthyAudited  int64
	HealthyCoverage float64 // bound coverage across all tables
	HealthyBounds   int64
	HealthyRealized float64 // mean realized accuracy
	HealthyClaimed  float64 // mean claimed accuracy
	HealthyViol     int64

	// Bias pass (stale calibration claiming near-exact coarse levels).
	BiasCalls    int
	BiasAudited  int64
	BiasViol     int64
	BiasDetectAt int64 // audited samples when the first violation surfaced
	BiasRealized float64
	BiasClaimed  float64
	BiasPinned   int // traces pinned as floor-violation anomalies

	// Drift pass (ingest-driven epoch swap under queued audits).
	DriftQueued      int
	DriftSkipped     int64
	DriftPostAudited int64

	// Burn-rate windows vs the naive reference.
	BurnChecks     int
	BurnMismatches int

	// Tail retention.
	RetainAnomalous int   // degraded replies driven through the tiny ring
	RetainPinned    int   // of those, found in the exemplar store at the end
	RetainInRing    int   // of those, still in the live ring (want 0: rotated)
	RetainHealthy   int   // healthy rotation requests
	RetainSLODeg    int64 // degraded count in the 1h SLO window
}

// RunAuditCompare runs the audit-plane validation at a scale.
func RunAuditCompare(sc Scale) (*AuditCompare, error) {
	svc, err := BuildAggService(sc)
	if err != nil {
		return nil, err
	}
	queries := svc.Data.SampleAggQueries(sc.Seed^0xa0d1, 16)
	honest := LadderAccuracy(svc.Comps, queries)
	biased := make([]float64, len(honest))
	for l := range biased {
		biased[l] = auditBiasClaim
	}

	ac := &AuditCompare{Servers: len(svc.Comps)}

	// (1) Zero cost when off, and on the non-sampled hot path.
	var nilAuditor *audit.Auditor
	ac.DisabledAllocs = testing.AllocsPerRun(1000, func() {
		if nilAuditor.ShouldSample(12345) {
			nilAuditor.Submit(nil)
		}
	})
	probe, err := audit.New(audit.Config{
		SampleFraction: 1e-4, // nearly every ID takes the non-sampled path
		Replay:         func(context.Context, *audit.Sample) ([]float64, error) { return nil, nil },
	})
	if err != nil {
		return nil, err
	}
	var id uint64
	ac.NotSampledAllocs = testing.AllocsPerRun(1000, func() {
		id = id*2654435761 + 12345
		if probe.ShouldSample(id) {
			_ = id
		}
	})
	probe.Close()
	ac.promise("zero-cost", (ac.DisabledAllocs == 0 && ac.NotSampledAllocs == 0) || raceEnabled,
		"disabled %.1f allocs/op, non-sampled hot path %.1f allocs/op (%s)",
		ac.DisabledAllocs, ac.NotSampledAllocs, wantZeroAllocs())

	// (2) Healthy pass: honest calibration, achievable floor.
	hp, err := runAuditedPass(svc, queries, honest, auditHealthyFloor, auditHealthyCalls, 0)
	if err != nil {
		return nil, err
	}
	ac.HealthyCalls = auditHealthyCalls
	ac.HealthyAudited = hp.stats.Audited
	ac.HealthyViol = hp.stats.Violations
	var covered, total int64
	var sumRealized, sumClaimed float64
	var samples int64
	for _, tv := range hp.tables {
		covered += tv.BoundsCovered
		total += tv.BoundsTotal
		sumRealized += tv.MeanRealized * float64(tv.Samples)
		sumClaimed += tv.MeanClaimed * float64(tv.Samples)
		samples += tv.Samples
	}
	ac.HealthyBounds = total
	if total > 0 {
		ac.HealthyCoverage = float64(covered) / float64(total)
	}
	if samples > 0 {
		ac.HealthyRealized = sumRealized / float64(samples)
		ac.HealthyClaimed = sumClaimed / float64(samples)
	}
	ac.promise("calibration", ac.HealthyAudited == int64(auditHealthyCalls) &&
		total > 0 && ac.HealthyCoverage >= auditNominalConfidence,
		"honest table: %d/%d audited, bound coverage %.3f over %d bounds (nominal %.2f), realized %.3f vs claimed %.3f, %d floor violations",
		ac.HealthyAudited, ac.HealthyCalls, ac.HealthyCoverage, ac.HealthyBounds,
		auditNominalConfidence, ac.HealthyRealized, ac.HealthyClaimed, ac.HealthyViol)

	// (3) Bias pass: a stale table claims every level is near-exact, so
	// Bounded{auditBiasFloor} traffic lands on the coarsest level and
	// every audit measures realized accuracy far below both the claim
	// and the floor.
	bp, err := runAuditedPass(svc, queries, biased, auditBiasFloor, auditBiasCalls, auditDetectK)
	if err != nil {
		return nil, err
	}
	ac.BiasCalls = auditBiasCalls
	ac.BiasAudited = bp.stats.Audited
	ac.BiasViol = bp.stats.Violations
	ac.BiasDetectAt = bp.detectAt
	ac.BiasPinned = bp.pinnedFloor
	sumRealized, sumClaimed, samples = 0, 0, 0
	for _, tv := range bp.tables {
		sumRealized += tv.MeanRealized * float64(tv.Samples)
		sumClaimed += tv.MeanClaimed * float64(tv.Samples)
		samples += tv.Samples
	}
	if samples > 0 {
		ac.BiasRealized = sumRealized / float64(samples)
		ac.BiasClaimed = sumClaimed / float64(samples)
	}
	ac.promise("detection", ac.BiasViol > 0 &&
		ac.BiasDetectAt > 0 && ac.BiasDetectAt <= auditDetectK &&
		ac.BiasPinned == int(ac.BiasViol),
		"stale table claiming %.3f: %d/%d audits violated the %.2f floor, first at audit #%d (budget %d), %d traces pinned; realized %.3f vs claimed %.3f — the audit gap IS the staleness",
		auditBiasClaim, ac.BiasViol, ac.BiasAudited, auditBiasFloor, ac.BiasDetectAt, auditDetectK, ac.BiasPinned, ac.BiasRealized, ac.BiasClaimed)

	// (4) Drift: audits queued across an ingest-driven epoch swap must
	// be skipped stale, and post-swap answers must audit normally.
	if err := ac.runDriftPhase(sc, svc); err != nil {
		ac.promise("drift", false, "%v", err)
	} else {
		ac.promise("drift", true, "%d audits queued across an ingest epoch swap: %d skipped stale, %d post-swap audited",
			ac.DriftQueued, ac.DriftSkipped, ac.DriftPostAudited)
	}

	// (5a) Burn-rate windows vs a naive re-scanning reference.
	ac.runBurnPhase()

	// (5b) Tail retention: anomalies survive a tiny rotating ring.
	if err := ac.runRetentionPhase(svc); err != nil {
		return nil, err
	}
	return ac, nil
}

// auditPassResult carries one calibration pass's outcome.
type auditPassResult struct {
	stats       audit.Stats
	tables      []audit.TableView
	detectAt    int64 // audited samples when the first violation surfaced (0: never)
	pinnedFloor int   // exemplars carrying the floor-violation anomaly bit
}

// runAuditedPass builds a fresh audited loopback stack over the shared
// components — claimed per-level accuracy as given — drives `calls`
// Bounded requests at `floor`, waits for every audit to settle, and
// snapshots the auditor. detectK > 0 additionally waits for the
// verdict pins to land (the bias pass inspects them).
func runAuditedPass(svc *AggService, queries []agg.Query, levelAcc []float64, floor float64, calls, detectK int) (*auditPassResult, error) {
	backend := netsvc.NewAggBackend(svc.Comps, netsvc.BackendOptions{IMaxFrac: auditIMaxFrac})
	rec := obs.NewRecorder(2*calls, 32)
	// detectAt records the audited-sample index of the first floor
	// violation — the "within K samples" detection-latency measurement.
	var audited, detectAt atomic.Int64
	lb, err := netsvc.StartLoopback(netsvc.LoopbackSpec{
		Components: len(svc.Comps),
		Handler:    func(int) netsvc.Handler { return backend },
		Server:     netsvc.ServerOptions{Workers: 1, QueueLen: 256},
		Agg:        gatherAll,
		Front: func(agr *netsvc.Aggregator) (*netsvc.FrontServer, error) {
			fe, err := calibratedFrontend(agr, levelAcc)
			if err != nil {
				return nil, err
			}
			fs := netsvc.NewFrontServer(agr, fe, netsvc.ServerOptions{Tracer: rec})
			fs.EnableSLO(obs.NewSLOTracker(obs.DefaultSLOBudgets()), nil)
			_, err = fs.EnableAudit(audit.Config{
				SampleFraction: 1,
				Interval:       200 * time.Microsecond,
				Gate:           func() bool { return true }, // keep pacing deterministic at this load
				OnVerdict: func(_ *audit.Sample, v audit.Verdict) {
					i := audited.Add(1)
					if v.FloorViolated {
						detectAt.CompareAndSwap(0, i)
					}
				},
			})
			return fs, err
		},
	})
	if err != nil {
		return nil, err
	}
	defer lb.Close()
	cl, auditor := lb.Client, lb.Front.Auditor()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < calls; i++ {
		q := queries[i%len(queries)]
		req := aggRequest(q)
		req.SLO, req.MinAccuracy = wire.SLOBounded, floor
		req.Deadline = time.Now().Add(auditDeadlineMs * time.Millisecond).UnixNano()
		rep, err := cl.Call(ctx, req)
		if err != nil {
			return nil, err
		}
		if rep.Status != wire.ReplyOK {
			return nil, fmt.Errorf("auditcompare: call %d status %d (%s)", i, rep.Status, rep.Err)
		}
	}
	if !auditor.Drain(20 * time.Second) {
		return nil, fmt.Errorf("auditcompare: auditor never drained: %+v", auditor.Stats())
	}
	res := &auditPassResult{stats: auditor.Stats(), tables: auditor.Tables()}

	// Drain returns once the counters balance; the final OnVerdict (and
	// its trace pin) may still be in flight on the worker. Poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for audited.Load() < res.stats.Audited && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	res.detectAt = detectAt.Load()
	if detectK > 0 {
		for time.Now().Before(deadline) {
			res.pinnedFloor = countPinned(rec, obs.AnomalyFloorViolation)
			if int64(res.pinnedFloor) >= res.stats.Violations {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	return res, nil
}

// countPinned counts exemplars carrying the given anomaly bit.
func countPinned(rec *obs.Recorder, bit obs.AnomalyReason) int {
	n := 0
	for _, tv := range rec.Exemplars(0) {
		if tv.Anomaly&uint8(bit) != 0 {
			n++
		}
	}
	return n
}

// runDriftPhase stages the shared fact shards into live stores, queues
// audits behind a closed gate, swaps the data epoch through the ingest
// path, and asserts the queued samples are skipped stale while
// post-swap answers audit normally.
func (ac *AuditCompare) runDriftPhase(sc Scale, svc *AggService) error {
	const shards = 2
	const preSwap, postSwap = 3, 2
	lives := make([]*ingest.AggLive, shards)
	for i := range lives {
		l, err := StageAggLive(svc.Data.Subsets[i%len(svc.Data.Subsets)], sc.AggConfig())
		if err != nil {
			return err
		}
		lives[i] = l
	}
	var gateOpen atomic.Bool
	lb, err := netsvc.StartLoopback(netsvc.LoopbackSpec{
		Components: shards,
		Handler: func(i int) netsvc.Handler {
			return netsvc.NewLiveAggBackend(lives[i:i+1], netsvc.BackendOptions{IMaxFrac: auditIMaxFrac})
		},
		Ingest: func(i int) netsvc.IngestHandler {
			return netsvc.NewLiveIngestHandler(netsvc.LiveStores{Agg: lives[i : i+1]})
		},
		Server: netsvc.ServerOptions{Workers: 1},
		Agg:    gatherAll,
		Front: func(agr *netsvc.Aggregator) (*netsvc.FrontServer, error) {
			fs := netsvc.NewFrontServer(agr, nil, netsvc.ServerOptions{Tracer: obs.NewRecorder(32, 16)})
			fs.EnableIngest(0)
			_, err := fs.EnableAudit(audit.Config{
				SampleFraction: 1,
				Interval:       200 * time.Microsecond,
				Gate:           gateOpen.Load,
			})
			return fs, err
		},
	})
	if err != nil {
		return err
	}
	defer lb.Close()
	cl, fs, auditor := lb.Client, lb.Front, lb.Front.Auditor()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	call := func() error {
		req := &wire.Request{
			Kind: wire.KindAgg, Subset: -1, SLO: wire.SLOBounded, Level: 0,
			Agg: &wire.AggRequest{Op: uint8(agg.Sum), Lo: 0, Hi: math.Inf(1)},
		}
		rep, err := cl.Call(ctx, req)
		if err != nil {
			return err
		}
		if rep.Status != wire.ReplyOK {
			return fmt.Errorf("drift call status %d (%s)", rep.Status, rep.Err)
		}
		return nil
	}
	// Queue preSwap audits behind the closed gate.
	for i := 0; i < preSwap; i++ {
		if err := call(); err != nil {
			return err
		}
	}
	ac.DriftQueued = preSwap
	// Drift arrives through the write path: the append's acknowledgement
	// carries the staging epoch, which the front server folds in as an
	// observed swap — every queued sample is now stale.
	before := fs.DataEpoch()
	ack, err := cl.Ingest(ctx, &wire.IngestRequest{
		Kind: wire.KindAgg, Subset: 0,
		Agg: &wire.AggIngest{Keys: []int32{0, 1}, Vals: []float64{5, 7}},
	})
	if err != nil {
		return err
	}
	if ack.Status != wire.IngestOK {
		return fmt.Errorf("drift ingest status %d (%s)", ack.Status, ack.Err)
	}
	if fs.DataEpoch() == before {
		return fmt.Errorf("ingest ack (epoch %d) did not advance the observed data epoch %d", ack.Epoch, before)
	}
	gateOpen.Store(true)
	if !auditor.Drain(10 * time.Second) {
		return fmt.Errorf("drift drain: %+v", auditor.Stats())
	}
	st := auditor.Stats()
	ac.DriftSkipped = st.SkippedStale
	if st.Audited != 0 || st.SkippedStale != preSwap {
		return fmt.Errorf("pre-swap samples not skipped stale: %+v", st)
	}
	// Requests answered entirely after the swap audit normally.
	for i := 0; i < postSwap; i++ {
		if err := call(); err != nil {
			return err
		}
	}
	if !auditor.Drain(10 * time.Second) {
		return fmt.Errorf("post-swap drain: %+v", auditor.Stats())
	}
	st = auditor.Stats()
	ac.DriftPostAudited = st.Audited
	if st.Audited != postSwap {
		return fmt.Errorf("post-swap samples not audited: %+v", st)
	}
	if st.Sampled != st.Audited+st.SkippedStale+st.ReplayErrs+st.Dropped {
		return fmt.Errorf("audit accounting broken: %+v", st)
	}
	return nil
}

// burnWindow mirrors the tracker's published window geometry: 60
// buckets of gran seconds (1m/10m/1h at 1s/10s/60s granularity).
type burnWindow struct {
	name    string
	gran    int64
	buckets int64
}

var burnWindows = []burnWindow{{"1m", 1, 60}, {"10m", 10, 60}, {"1h", 60, 60}}

// runBurnPhase feeds one deterministic event stream to the SLO tracker
// (under a fake clock) and to a naive keep-everything reference, then
// compares every class x window count and burn rate.
func (ac *AuditCompare) runBurnPhase() {
	type ev struct {
		sec     int64
		class   uint8
		flags   obs.SLOFlags
		counted bool
	}
	base := time.Unix(1_750_000_000, 0)
	now := base
	budgets := obs.DefaultSLOBudgets()
	tr := obs.NewSLOTracker(budgets)
	tr.SetClock(func() time.Time { return now })
	var events []ev

	rng := uint64(0xb0a7)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	at := base
	for i := 0; i < 3000; i++ {
		at = at.Add(time.Duration(next(3)) * time.Second)
		class := uint8(next(3))
		var flags obs.SLOFlags
		if next(100) < 2 {
			flags |= obs.SLODeadlineMiss
		}
		if next(100) < 8 {
			flags |= obs.SLODegraded
		}
		tr.RecordAt(at, class, "", flags)
		events = append(events, ev{at.Unix(), class, flags, true})
		if next(100) < 1 {
			// After-the-fact floor violation: counter only, no total.
			now = at
			tr.RecordFloorViolation(class, "")
			events = append(events, ev{at.Unix(), class, obs.SLOFloorViolation, false})
		}
	}
	now = at

	naive := func(class uint8, w burnWindow) (total, miss, floor, deg int64) {
		hi := at.Unix() / w.gran
		lo := hi - w.buckets + 1
		for _, e := range events {
			b := e.sec / w.gran
			if e.class != class || b < lo || b > hi {
				continue
			}
			if e.counted {
				total++
			}
			if e.flags&obs.SLODeadlineMiss != 0 {
				miss++
			}
			if e.flags&obs.SLOFloorViolation != 0 {
				floor++
			}
			if e.flags&obs.SLODegraded != 0 {
				deg++
			}
		}
		return
	}
	burnOf := func(bad, total int64, budget float64) float64 {
		if total == 0 || budget <= 0 {
			return 0
		}
		return float64(bad) / float64(total) / budget
	}
	for class := uint8(0); class < 3; class++ {
		for w, spec := range burnWindows {
			total, miss, floor, deg := tr.Window(class, w)
			nt, nm, nf, nd := naive(class, spec)
			ac.BurnChecks++
			if total != nt || miss != nm || floor != nf || deg != nd {
				ac.BurnMismatches++
				continue
			}
			for _, pair := range [][2]float64{
				{tr.BurnRate(class, obs.SLODeadlineMiss, w), burnOf(nm, nt, budgets.DeadlineMiss)},
				{tr.BurnRate(class, obs.SLOFloorViolation, w), burnOf(nf, nt, budgets.FloorViolation)},
				{tr.BurnRate(class, obs.SLODegraded, w), burnOf(nd, nt, budgets.Degraded)},
			} {
				if math.Abs(pair[0]-pair[1]) > 1e-9 {
					ac.BurnMismatches++
					break
				}
			}
		}
	}
	ac.promise("burn rates", ac.BurnChecks == 9 && ac.BurnMismatches == 0,
		"%d class x window checks against the naive reference, %d mismatches", ac.BurnChecks, ac.BurnMismatches)
}

// runRetentionPhase drives degraded replies through a deliberately tiny
// trace ring, then floods it with healthy traffic: the anomalies must
// survive in the exemplar store after rotating out of the ring.
func (ac *AuditCompare) runRetentionPhase(svc *AggService) error {
	const shards = 2
	const anomalous = 4
	inner := netsvc.NewAggBackend(svc.Comps, netsvc.BackendOptions{IMaxFrac: auditIMaxFrac})
	var lose atomic.Bool
	rec := obs.NewRecorder(auditRetentionRing, 16)
	slo := obs.NewSLOTracker(obs.DefaultSLOBudgets())
	lb, err := netsvc.StartLoopback(netsvc.LoopbackSpec{
		Components: shards,
		Handler: func(i int) netsvc.Handler {
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
		Server: netsvc.ServerOptions{Workers: 1},
		Agg:    gatherAll,
		Front: func(agr *netsvc.Aggregator) (*netsvc.FrontServer, error) {
			fs := netsvc.NewFrontServer(agr, nil, netsvc.ServerOptions{Tracer: rec})
			fs.EnableSLO(slo, nil)
			return fs, nil
		},
	})
	if err != nil {
		return err
	}
	defer lb.Close()
	cl := lb.Client

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	call := func() (*wire.Reply, error) {
		req := &wire.Request{
			Kind: wire.KindAgg, Subset: -1, SLO: wire.SLOBestEffort, Level: wire.NoLevel,
			Agg: &wire.AggRequest{Op: uint8(agg.Sum), Lo: 0, Hi: math.Inf(1)},
		}
		rep, err := cl.Call(ctx, req)
		if err != nil {
			return nil, err
		}
		if rep.Status != wire.ReplyOK && rep.Status != wire.ReplyDegraded {
			return nil, fmt.Errorf("retention call status %d (%s)", rep.Status, rep.Err)
		}
		return rep, nil
	}

	// Degraded phase: shard 0 is down, BestEffort serves around it.
	lose.Store(true)
	anomalyIDs := make(map[uint64]bool, anomalous)
	for i := 0; i < anomalous; i++ {
		rep, err := call()
		if err != nil {
			return err
		}
		if !rep.Degraded && rep.Status != wire.ReplyDegraded {
			return fmt.Errorf("faulted reply not degraded: %+v", rep)
		}
		if rep.Trace == 0 {
			return fmt.Errorf("degraded reply carries no trace ID")
		}
		anomalyIDs[rep.Trace] = true
	}
	lose.Store(false)
	ac.RetainAnomalous = len(anomalyIDs)

	// Healthy flood: 3x the ring, rotating the anomalies out of it.
	ac.RetainHealthy = 3 * auditRetentionRing
	for i := 0; i < ac.RetainHealthy; i++ {
		if _, err := call(); err != nil {
			return err
		}
	}
	for _, tv := range rec.Snapshot(0) {
		if anomalyIDs[tv.ID] {
			ac.RetainInRing++
		}
	}
	for _, tv := range rec.Exemplars(0) {
		if anomalyIDs[tv.ID] && tv.Anomaly&uint8(obs.AnomalyDegraded) != 0 {
			ac.RetainPinned++
		}
	}
	_, _, _, deg := slo.Window(wire.SLOBestEffort, 2)
	ac.RetainSLODeg = deg
	ac.promise("retention", ac.RetainAnomalous == anomalous &&
		ac.RetainPinned == anomalous &&
		ac.RetainInRing == 0 &&
		ac.RetainSLODeg == int64(anomalous),
		"%d degraded replies through a %d-slot ring + %d healthy: %d pinned as exemplars, %d left in ring (want 0), SLO degraded %d",
		ac.RetainAnomalous, auditRetentionRing, ac.RetainHealthy, ac.RetainPinned, ac.RetainInRing, ac.RetainSLODeg)
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

// auditMismatchGapFloor is the minimum claimed-minus-realized gap the
// bias pass must demonstrate for the staleness story to hold — at
// least the runtime's mismatch-pinning slack, so the gap is large
// enough to pin traces as audit mismatches.
const auditMismatchGapFloor = 0.05
