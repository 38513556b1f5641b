package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

const (
	// setups is the number of full set-ups per benchmark run; setup_s is
	// their median. The agg workloads set up in 30-40 ms, where a single
	// scheduler hiccup is a tenth of the value, hence seven and not three.
	setups = 7
	// tracedShare is the share of the op count the traced run repeats.
	tracedShare = 0.25
	// lagLimitUs is the generator lateness beyond which an open-loop
	// run is flagged: the schedule it measured was not the one intended.
	lagLimitUs = 1000
)

// report is one run's result: the driver's four fields plus notes for
// the human reader.
type report struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Notes     []string
	Invalid   []string // reasons the run's numbers must not be used
}

// Correct reports that every op's output was right and the run valid.
func (r *report) Correct() bool { return r.Failed == 0 && len(r.Invalid) == 0 }

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// opCounts converts a run length into the warm-up and measured op
// counts: measured is a multiple of the segment count, warm-up is a
// tenth of it.
func opCounts(w *workload, seconds float64) (warm, measured int) {
	measured = int(math.Round(float64(w.opsPerSecond)*seconds/segments)) * segments
	if measured < segments {
		measured = segments
	}
	return measured / 10, measured
}

// execute runs one pass over ops, the first warm of them unmeasured,
// on a started instance.
func execute(w *workload, in *instance, seed uint64, ops []op, warm int, hook opHook) *pass {
	if w.open {
		return runOpen(in, ops, poissonSchedule(seed, len(ops), float64(w.opsPerSecond)), warm, hook)
	}
	return runClosed(in, ops, warm, hook)
}

// runUntraced is the end-to-end run: several set-ups from scratch,
// then one measured pass on the last, nothing instrumented.
func runUntraced(w *workload, seed uint64, seconds float64, nSetups int) (*report, error) {
	rep := &report{Metrics: map[string]float64{}}
	var in *instance
	totals := make([]float64, 0, nSetups)
	for k := 0; k < nSetups; k++ {
		if in != nil {
			in.Close()
			in = nil
			runtime.GC()
		}
		var err error
		if in, err = w.setup(seed, nil, true); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		totals = append(totals, in.timing.total().Seconds())
	}
	defer in.Close()
	if err := in.prepare(); err != nil {
		return nil, err
	}
	warm, measured := opCounts(w, seconds)
	p := execute(w, in, seed, in.ops(warm+measured), warm, nil)
	m := rep.Metrics
	m["setup_s"] = median(totals)
	m["live_heap_mb"] = liveHeapMB()
	endToEndMetrics(rep, w, p)
	finish(rep, p)
	return rep, nil
}

// endToEndMetrics derives the gated metrics from a pass.
func endToEndMetrics(rep *report, w *workload, p *pass) {
	m := rep.Metrics
	p50, ok := medianOverSegments(p.readLatUs, 0.5)
	if !ok {
		rep.note("too few reads for a median with %d samples on each side in every segment: the nearest supported quantile is reported", minBeyond)
	}
	m["rtt_p50_us"] = p50
	m["ok_frac"] = ratio(float64(p.okOps), float64(p.ops))
	m["accuracy"] = ratio(p.accSum, float64(p.accN))
	m["cpu_us_per_req"] = median(p.cpuUsPerOp)
	m["allocs_per_req"] = ratio(float64(p.mallocs), float64(p.ops))
	m["alloc_kb_per_req"] = ratio(float64(p.allocBytes)/1024, float64(p.ops))
	if w.open {
		if lag, _ := quantileOf(p.lagUs, 0.99); lag > lagLimitUs {
			rep.note("generator late: p99 lag %.0f us exceeds %d us, so the offered schedule drifted (host stall?)", lag, lagLimitUs)
		}
	}
}

// tailChunks regroups the per-segment latencies, in order, into as
// many equal chunks as leave minBeyond samples beyond each chunk's p99
// (at most the segment count, at least one): the tail is then a median
// over chunks where the op count allows, like every other timed metric.
func tailChunks(segs [][]float64) [][]float64 {
	var all []float64
	for _, s := range segs {
		all = append(all, s...)
	}
	const perChunk = 100 * (minBeyond + 1) // p99 with minBeyond samples beyond it
	n := min(max(len(all)/perChunk, 1), len(segs))
	out := make([][]float64, n)
	for c := range out {
		out[c] = all[c*len(all)/n : (c+1)*len(all)/n]
	}
	return out
}

// finish fills the driver's counts and validates the metric values.
func finish(rep *report, p *pass) {
	rep.Attempted = p.ops
	rep.Failed = p.nViolation
	if p.nViolation > 0 {
		rep.note("%d ops failed; first: %q", p.nViolation, p.violations)
	}
	for name, v := range rep.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Metrics[name] = 0
			rep.invalid("metric %s is not finite", name)
		}
	}
}

// runTraced is the per-layer run: an untraced pass for reference, the
// same ops again with the decorators and counting connections in
// place, then the isolated probes.
func runTraced(w *workload, seed uint64, seconds float64, outDir string) (*report, error) {
	rep := &report{Metrics: map[string]float64{}}
	m := rep.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	warm, measured := opCounts(w, seconds*tracedShare)

	// Reference pass: same op count, nothing installed.
	plain, err := w.setup(seed, nil, true)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if err := plain.prepare(); err != nil {
		plain.Close()
		return nil, err
	}
	ref := execute(w, plain, seed, plain.ops(warm+measured), warm, nil)
	plain.Close()
	runtime.GC()

	tr := newTracer()
	in, err := w.setup(seed, tr, true)
	if err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	defer in.Close()
	if err := in.prepare(); err != nil {
		return nil, err
	}
	m["workload.gen_s"] = in.timing.gen.Seconds()
	m["synopsis.build_s"] = in.timing.synopsis.Seconds()
	m["agg.build_s"] = in.timing.aggBuild.Seconds()
	m["netsvc.ready_s"] = in.timing.ready.Seconds()

	type tracedRead struct {
		i  int
		id uint64
	}
	var traced []tracedRead
	ops := in.ops(warm + measured)
	p := execute(w, in, seed, ops, warm, func(i int, o op, r *opResult, start, end time.Time) {
		if r.read && r.id != 0 {
			tr.add(spanClient, "", r.id, -1, start, end)
			traced = append(traced, tracedRead{i, r.id})
		}
	})
	// Boundary counts and aggregator counters cover the client pass
	// only, so they are read before the harness adds calls of its own.
	reads := p.reads // the connection counters run from the first byte, warm-up included
	for _, o := range ops[:warm] {
		if o.kind == opRead {
			reads++
		}
	}
	probeConns(m, tr, reads)
	probeWire(m, tr, reads)
	st := in.rig.agg.Stats()
	hedgeDelay := in.rig.agg.EstimatedP95()

	// Without a frontend the front server holds the concrete aggregator,
	// which cannot be decorated: the gather span comes from repeating
	// each traced read as a direct Aggregator.Call; pairs links the two.
	var pairs map[uint64]uint64
	if !in.hasFrontend {
		pairs = map[uint64]uint64{}
		for _, t := range traced {
			seq := uint64(directSeqBase + t.i)
			tr.directCall(in.rig.agg, in.request(ops[t.i]), seq)
			pairs[t.id] = seq
		}
	}

	refP50, _ := medianOverSegments(ref.readLatUs, 0.5)
	trP50, _ := medianOverSegments(p.readLatUs, 0.5)
	m["trace.overhead_frac"] = ratio(trP50-refP50, refP50)

	bds, gatherUs := tr.breakdowns(pairs)
	var front, gather, handler []float64
	for _, b := range bds {
		front = append(front, b.frontSelf)
		gather = append(gather, b.gatherSelf)
		handler = append(handler, b.handler)
	}
	if len(bds) > 0 {
		m["netsvc.front_self_us"] = median(front)
		m["netsvc.gather_self_us"] = median(gather)
		m["netsvc.handler_us"] = median(handler)
		m["netsvc.agg_call_us"] = median(gatherUs)
		m["trace.reconcile_frac"] = ratio(m["netsvc.front_self_us"]+m["netsvc.gather_self_us"]+m["netsvc.handler_us"], refP50)
	}

	clientMetrics(m, w, p)
	m["netsvc.hedges_per_req"] = ratio(float64(st.Hedges), float64(reads))
	m["netsvc.retries_per_req"] = ratio(float64(st.Retries), float64(reads))
	if w.open {
		m["netsvc.hedge_delay_ms"] = hedgeDelay.Seconds() * 1e3
	}
	var reqs, abandoned, shed int64
	for _, s := range in.rig.servers {
		ss := s.Stats()
		reqs += ss.Requests
		abandoned += ss.Abandoned
		shed += ss.Shed
	}
	m["netsvc.abandoned_frac"] = ratio(float64(abandoned), float64(reqs))
	m["netsvc.shed_frac"] = ratio(float64(shed), float64(reqs+shed))
	m["netsvc.degraded_frac"] = ratio(float64(p.degraded), float64(p.reads))
	m["core.sets_per_subop"] = ratio(float64(tr.sets.Load()), float64(tr.subOps.Load()))
	m["frontend.level_mean"] = ratio(float64(p.levelSum), float64(p.levelN))
	m["rescache.hit_frac"] = ratio(float64(p.cached), float64(p.reads))
	m["ingest.publish_us"] = median0(p.publishNs) / 1e3
	m["ingest.compact_ms"] = median0(p.compactNs) / 1e6
	in.layerCounts(m, p.counts)

	probeCompose(m, tr)
	in.probes(tr, m)
	probeHost(m)

	if w.planes {
		// The price of watching: the same reads with every plane off.
		off, err := w.setup(seed, nil, false)
		if err != nil {
			return nil, fmt.Errorf("%s: planes-off set-up: %w", w.name, err)
		}
		if err := off.prepare(); err != nil {
			off.Close()
			return nil, err
		}
		q := execute(w, off, seed, off.ops(warm+measured), warm, nil)
		off.Close()
		offP50, _ := medianOverSegments(q.readLatUs, 0.5)
		m["planes.overhead_us"] = refP50 - offP50
		m["planes.allocs_per_req"] = ratio(float64(ref.mallocs), float64(ref.ops)) - ratio(float64(q.mallocs), float64(q.ops))
	}

	counts := map[string]float64{}
	for _, name := range []string{"netsvc.conn_writes_per_req", "netsvc.conn_reads_per_req", "wire.bytes_per_req",
		"netsvc.hedges_per_req", "core.sets_per_subop", "rescache.hit_frac", "frontend.level_mean"} {
		counts[name] = m[name]
	}
	path, err := tr.write(outDir, w.name, seed, counts)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.note("trace written to %s", path)
	finish(rep, p)
	return rep, nil
}

// clientMetrics are the generator-side diagnostics.
func clientMetrics(m map[string]float64, w *workload, p *pass) {
	m["client.rtt_p10_us"], _ = medianOverSegments(p.readLatUs, 0.10)
	m["client.tail_p99_ms"], _ = medianOverSegments(tailChunks(p.readLatUs), 0.99)
	m["client.tail_p99_ms"] /= 1e3
	m["client.write_p50_us"] = median0(p.writeLatUs)
	m["client.busy_rps"] = ratio(float64(p.ops), p.wall.Seconds())
	if w.open {
		m["loadgen.lag_p99_us"], _ = quantileOf(p.lagUs, 0.99)
	}
	m["runtime.gc_cycles_per_kreq"] = ratio(float64(p.gcCycles)*1e3, float64(p.ops))
	m["runtime.gc_pause_us_per_req"] = ratio(float64(p.gcPauseNs)/1e3, float64(p.ops))
}

// median0 is median with 0 for an empty slice.
func median0(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}
