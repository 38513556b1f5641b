package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing" // AllocsPerRun: the disabled-path zero-allocation guard
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/wire"
)

// The tracecompare experiment (observability extension, not a paper
// figure) validates the end-to-end decision tracing pipeline on the
// real networked stack: wire clients against a traced FrontServer,
// whose aggregator fans out to component servers over loopback TCP.
// It asserts three contracts —
//
//  1. stitching: in every answered fan-out trace, each answered
//     sub-operation span carries the server-side queue/exec spans that
//     travelled back in its sub-reply (span trees survive the wire);
//  2. accounting: the span tree explains the measured request latency —
//     the critical-path accounted time covers at least
//     traceCoverageFloor of the measured total on average;
//  3. zero cost when off: the disabled tracing path (no recorder)
//     allocates nothing per request.
//
// It also runs an identical untraced pass and reports the measured
// tracing overhead, and renders the per-SLO-class deadline-budget
// breakdown table (obs.Summarize) over the traced pass.
const (
	// traceRequests is the request count per pass (traced and untraced).
	traceRequests = 240
	// traceWorkers is the closed-loop client concurrency.
	traceWorkers = 8
	// traceCoverageFloor is the minimum mean fraction of measured
	// request latency the critical-path spans must account for.
	traceCoverageFloor = 0.5
	// traceCoverageCeil guards against double-counting: accounted time
	// beyond the measured total means a stage was recorded twice (small
	// epsilon for clock jitter between stamps).
	traceCoverageCeil = 1.05
	// traceDeadlineMs is the stamped service budget (l_spe) of Bounded
	// and BestEffort requests.
	traceDeadlineMs = 50.0
)

// TraceCompare is the experiment result.
type TraceCompare struct {
	contracts
	Servers  int
	Requests int // per pass

	// Traced-pass outcomes.
	Answered     int // traces answered (not rejected)
	FanOuts      int // answered traces that ran a fan-out (no cache here)
	Stitched     int // fan-out traces with complete remote stitching
	CoverageMean float64
	MeanTracedMs float64

	// Untraced-pass outcomes.
	MeanUntracedMs float64
	OverheadPct    float64 // traced vs untraced mean latency

	DisabledAllocs float64 // allocs/op of the disabled tracing path

	Summary *obs.Summary
}

// RunTraceCompare runs the tracing validation at a scale.
func RunTraceCompare(sc Scale) (*TraceCompare, error) {
	svc, err := BuildAggService(sc)
	if err != nil {
		return nil, err
	}
	comps := svc.Comps
	queries := svc.Data.SampleAggQueries(sc.Seed^0x7ace, 16)
	levelAcc := LadderAccuracy(comps, queries)
	unitCost := time.Duration(sc.aggUnitCostMs() * float64(time.Millisecond))

	tc := &TraceCompare{Servers: len(comps), Requests: traceRequests}

	// (3) Disabled path: TraceFrom on an untraced context returns nil,
	// and every method on the nil receiver is a no-op. One request's
	// worth of trace calls must not allocate.
	bg := context.Background()
	tc.DisabledAllocs = testing.AllocsPerRun(1000, func() {
		tr := obs.TraceFrom(bg)
		tr.SetRequest(uint8(wire.KindAgg), wire.SLOBounded, 0.9, 0)
		tr.SetDecision(obs.VerdictAdmitted, wire.SLOBounded, 1)
		tr.Add(obs.SpanSubOp, 0, time.Time{}, 0, 0)
		tr.Finish(0)
	})
	tc.promise("zero-cost", tc.DisabledAllocs == 0, "%.1f allocs/op with tracing off (want 0)", tc.DisabledAllocs)

	// Traced pass: recorder sized to retain every request.
	rec := obs.NewRecorder(traceRequests+traceWorkers, 64)
	tc.MeanTracedMs, err = tc.runPass(sc, comps, queries, levelAcc, unitCost, rec)
	if err != nil {
		return nil, err
	}
	tc.inspect(rec.Snapshot(0))

	// Untraced pass: identical stack, nil recorder.
	tc.MeanUntracedMs, err = tc.runPass(sc, comps, queries, levelAcc, unitCost, nil)
	if err != nil {
		return nil, err
	}
	if tc.MeanUntracedMs > 0 {
		tc.OverheadPct = 100 * (tc.MeanTracedMs - tc.MeanUntracedMs) / tc.MeanUntracedMs
	}
	return tc, nil
}

// runPass drives traceRequests closed-loop requests through a freshly
// built loopback stack and returns the mean request latency in ms.
func (tc *TraceCompare) runPass(sc Scale, comps []*agg.Component, queries []agg.Query,
	levelAcc []float64, unitCost time.Duration, rec *obs.Recorder) (float64, error) {
	backend := netsvc.NewAggBackend(comps, netsvc.BackendOptions{UnitCost: unitCost})
	lb, err := netsvc.StartLoopback(netsvc.LoopbackSpec{
		Components: len(comps),
		Handler:    func(int) netsvc.Handler { return backend },
		Server:     netsvc.ServerOptions{Workers: 1, QueueLen: 512},
		Agg:        gatherAll,
		Front: func(agr *netsvc.Aggregator) (*netsvc.FrontServer, error) {
			fe, err := calibratedFrontend(agr, levelAcc)
			if err != nil {
				return nil, err
			}
			return netsvc.NewFrontServer(agr, fe, netsvc.ServerOptions{Tracer: rec}), nil
		},
	})
	if err != nil {
		return 0, err
	}
	defer lb.Close()
	cl := lb.Client // one multiplexed connection shared by the workers

	var mu sync.Mutex
	var totalMs float64
	answered := 0
	var wg sync.WaitGroup
	var firstErr error
	perWorker := traceRequests / traceWorkers
	for w := 0; w < traceWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(sc.Seed ^ uint64(0xace1+w))
			for i := 0; i < perWorker; i++ {
				r := w*perWorker + i
				q := queries[rng.Intn(len(queries))]
				req := aggRequest(q)
				slo := overloadClassMix(r)
				req.SLO = uint8(slo.Kind)
				req.MinAccuracy = slo.MinAccuracy
				if slo.Kind != frontend.Exact {
					req.Deadline = time.Now().Add(time.Duration(traceDeadlineMs * float64(time.Millisecond))).UnixNano()
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				t0 := time.Now()
				rep, err := cl.Call(ctx, req)
				lat := time.Since(t0)
				cancel()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if rep.Status != wire.ReplyOK {
					continue
				}
				mu.Lock()
				totalMs += float64(lat) / float64(time.Millisecond)
				answered++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	if answered == 0 {
		return 0, fmt.Errorf("tracecompare: no request answered")
	}
	return totalMs / float64(answered), nil
}

// inspect evaluates the stitching and accounting contracts over the
// traced pass's recorded traces.
func (tc *TraceCompare) inspect(views []obs.TraceView) {
	tc.Summary = obs.Summarize(views)
	var coverSum float64
	coverCnt := 0
	coverOK := true
	for _, tv := range views {
		if !tv.Done || tv.Verdict == obs.VerdictRejected {
			continue
		}
		tc.Answered++
		subComps := map[int32]bool{}
		remoteBySubset := map[int32]int{}
		for _, sp := range tv.Spans {
			switch {
			case sp.Kind == obs.SpanSubOp:
				subComps[sp.Comp] = true
			case sp.Remote && (sp.Kind == obs.SpanServerQueue || sp.Kind == obs.SpanServerExec):
				remoteBySubset[sp.Comp]++
			}
		}
		if len(subComps) == 0 {
			continue // cache hit or short-circuit: no fan-out to stitch
		}
		tc.FanOuts++
		// Complete stitching: every answered sub-operation span has both
		// of its server-side spans under the same subset. (Subsets whose
		// budget expired answer Skipped and carry no spans at all — they
		// are absent from both sides, not half-stitched.)
		stitched := len(remoteBySubset) == len(subComps)
		for c := range subComps {
			if remoteBySubset[c] != 2 {
				stitched = false
			}
		}
		if stitched {
			tc.Stitched++
		}
		if tv.DurNs > 0 {
			cover := obs.Accounted(tv) / (float64(tv.DurNs) / float64(time.Millisecond))
			coverSum += cover
			coverCnt++
			if cover > traceCoverageCeil {
				coverOK = false // accounted more than elapsed: double count
			}
		}
	}
	if coverCnt > 0 {
		tc.CoverageMean = coverSum / float64(coverCnt)
	}
	tc.promise("stitching", tc.FanOuts > 0 && tc.Stitched == tc.FanOuts,
		"%d/%d fan-out traces: every answered sub-op span carries both of its server-side spans", tc.Stitched, tc.FanOuts)
	tc.promise("accounting", coverOK && tc.CoverageMean >= traceCoverageFloor,
		"critical-path spans explain %.0f%% of measured latency on average (floor %.0f%%, ceil %.0f%%)",
		100*tc.CoverageMean, 100*traceCoverageFloor, 100*traceCoverageCeil)
}

// Render formats the validation report and the budget breakdown table.
func (tc *TraceCompare) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TRACECOMPARE: end-to-end decision tracing over loopback TCP (%d component servers, %d requests per pass)\n\n",
		tc.Servers, tc.Requests)
	tc.renderContracts(&b)
	fmt.Fprintf(&b, "\n  mean latency: traced %.2f ms vs untraced %.2f ms (overhead %+.1f%%)\n\n",
		tc.MeanTracedMs, tc.MeanUntracedMs, tc.OverheadPct)
	if tc.Summary != nil {
		b.WriteString(tc.Summary.Render())
	}
	return b.String()
}
