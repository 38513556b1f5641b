package experiments

import (
	"fmt"
	"strings"
	"time"

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
// Its contracts (EXPERIMENTS.md § tracecompare): stitching — span trees
// survive the wire; accounting — the critical path explains at least
// traceCoverageFloor of measured latency. Zero cost when tracing is off
// is obs.TestNilTraceDoesNotAllocate's promise.
// An identical untraced pass measures the tracing overhead, and the
// traced pass renders the per-SLO-class budget breakdown (obs.Summarize).
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
	MeanTracedMs float64

	// Untraced-pass outcomes.
	MeanUntracedMs float64
	OverheadPct    float64 // traced vs untraced mean latency

	Summary *obs.Summary
}

// RunTraceCompare runs the tracing validation at a scale.
func RunTraceCompare(sc Scale) (*TraceCompare, error) {
	f, err := aggFixture(sc, 0x7ace, 16)
	if err != nil {
		return nil, err
	}
	tc := &TraceCompare{Servers: len(f.Comps), Requests: traceRequests}

	// Traced pass: recorder sized to retain every request.
	rec := obs.NewRecorder(traceRequests+traceWorkers, 64)
	if tc.MeanTracedMs, err = tc.runPass(sc, f, rec); err != nil {
		return nil, err
	}
	tc.inspect(rec.Snapshot(0))

	// Untraced pass: identical stack, nil recorder.
	if tc.MeanUntracedMs, err = tc.runPass(sc, f, nil); err != nil {
		return nil, err
	}
	if tc.MeanUntracedMs > 0 {
		tc.OverheadPct = 100 * (tc.MeanTracedMs - tc.MeanUntracedMs) / tc.MeanUntracedMs
	}
	return tc, nil
}

// runPass drives traceRequests closed-loop requests over traceWorkers
// through a freshly built loopback stack and returns the mean latency of
// the answered ones in ms. Worker w draws its queries from its own seeded
// stream, so both passes ask the same queries in the same order.
func (tc *TraceCompare) runPass(sc Scale, f *aggFix, rec *obs.Recorder) (float64, error) {
	perWorker := traceRequests / traceWorkers
	qis := make([]int, 0, traceRequests)
	for w := 0; w < traceWorkers; w++ {
		rng := stats.NewRNG(sc.Seed ^ uint64(0xace1+w))
		for i := 0; i < perWorker; i++ {
			qis = append(qis, rng.Intn(len(f.queries)))
		}
	}
	var totalMs float64
	answered := 0
	st, err := deployment{
		n:        len(f.Comps),
		handler:  shared(netsvc.NewAggBackend(f.Comps, netsvc.BackendOptions{UnitCost: msDur(f.unitMs)})),
		server:   netsvc.ServerOptions{Workers: 1, QueueLen: 512},
		front:    &netsvc.ServerOptions{Tracer: rec},
		levelAcc: f.levelAcc,
	}.start()
	if err != nil {
		return 0, err
	}
	defer st.Close()
	// The workers share the deployment's one multiplexed client connection.
	if _, err := (load{n: len(qis), workers: traceWorkers, timeout: 2 * time.Second,
		request: func(r int, at time.Time) ask {
			s := stamp{slo: overloadClassMix(r)}
			if s.slo.Kind != frontend.Exact {
				s.deadline = at.Add(msDur(traceDeadlineMs))
			}
			return ask{req: AggRequest(f.queries[qis[r]]), stamp: s}
		}}).run(st.target, func(_ int, latMs float64, o outcome) error {
		if o.status == wire.ReplyOK {
			totalMs += latMs
			answered++
		}
		return o.err
	}); err != nil {
		return 0, err
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
	var coverSum, coverMean float64
	coverCnt, stitchedCnt := 0, 0
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
			stitchedCnt++
		}
		if tv.DurNs > 0 {
			cover := obs.Accounted(tv) / ms(time.Duration(tv.DurNs))
			coverSum += cover
			coverCnt++
			if cover > traceCoverageCeil {
				coverOK = false // accounted more than elapsed: double count
			}
		}
	}
	if coverCnt > 0 {
		coverMean = coverSum / float64(coverCnt)
	}
	tc.promise("stitching", tc.FanOuts > 0 && stitchedCnt == tc.FanOuts,
		"%d/%d fan-out traces: every answered sub-op span carries both of its server-side spans", stitchedCnt, tc.FanOuts)
	tc.promise("accounting", coverOK && coverMean >= traceCoverageFloor,
		"critical-path spans explain %.0f%% of measured latency on average (floor %.0f%%, ceil %.0f%%)",
		100*coverMean, 100*traceCoverageFloor, 100*traceCoverageCeil)
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
