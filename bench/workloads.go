package main

import (
	"context"
	"fmt"
	"time"

	"accuracytrader/internal/svd"
	"accuracytrader/internal/synopsis"
	"accuracytrader/internal/wire"
)

// workload is one set of inputs the benchmark runs: a data set, a
// deployment and an op sequence, all generated from the seed.
type workload struct {
	name string
	why  string
	// opsPerSecond converts the --seconds argument into the fixed op
	// count of a run (sized so a run measures for about that long on
	// the reference 2-core box). Runs are count-driven, never
	// duration-driven: the same arguments issue the same ops.
	opsPerSecond int
	// open selects the open-loop protocol: a precomputed Poisson
	// schedule at opsPerSecond arrivals per second, latency counted
	// from the intended send time.
	open bool
	// planes reports that the workload deploys the observability planes,
	// so the traced run also measures it with them off.
	planes bool
	// setup generates the data, builds the synopses and starts the
	// deployment. planes=false leaves the observability planes off
	// where the workload deploys them.
	setup func(seed uint64, tr *tracer, planes bool) (*instance, error)
}

// setupTiming is where one set-up's time went.
type setupTiming struct {
	gen      time.Duration // workload.* data generation
	synopsis time.Duration // cf/textindex synopsis builds
	aggBuild time.Duration // agg ladder builds (frozen or live compaction)
	ready    time.Duration // listen, WaitReady, dial
}

func (s setupTiming) total() time.Duration { return s.gen + s.synopsis + s.aggBuild + s.ready }

// opResult is what the harness learned from one executed op.
type opResult struct {
	ok       bool    // answered, correct and inside its deadline
	read     bool    // a query: counts into rtt_* and accuracy
	accuracy float64 // realized accuracy of an answered read
	answered bool    // accuracy is valid
	id       uint64  // request id the client stamped (links trace spans)
	cached   bool
	degraded bool
	level    int // ladder level served, -1 when none
	// swapNs is the time a publish or compact op spent in the live
	// stores\' own PublishDelta/Compact calls.
	swapNs float64
	// violation, when set, says why the op failed: an error or a wrong
	// answer. A late answer or a typed refusal (rejected, unavailable)
	// is not ok but is no violation — it is the service's own verdict.
	violation string
}

// instance is one started deployment of a workload.
type instance struct {
	rig    *rig
	timing setupTiming
	// hasFrontend reports that the front server runs the frontend
	// pipeline, so the gather span comes from the Backend decorator.
	hasFrontend bool
	// ops generates the run's op sequence.
	ops func(n int) []op
	// prepare computes the expected answers; it runs once, after the
	// last set-up, outside setup_s.
	prepare func() error
	// request returns the wire request of a read op.
	request func(o op) *wire.Request
	// exec runs one op against the deployment and checks its reply.
	// sent is the op's (intended) send time.
	exec func(ctx context.Context, i int, o op, sent time.Time, out *opResult)
	// layerCounts adds the per-layer counters the deployment keeps.
	layerCounts func(m map[string]float64, c counts)
	// probes times the workload's layers in isolation on inputs
	// captured from its own traffic.
	probes func(tr *tracer, m map[string]float64)
}

// counts are the totals of one measured pass that per-layer ratios
// are taken against.
type counts struct {
	ops, reads int
}

func (in *instance) Close() { in.rig.Close() }

// synopsisConfig is the offline-module configuration of the CF and
// search workloads (the experiments' settings).
func synopsisConfig(seed uint64) synopsis.Config {
	return synopsis.Config{
		SVD:              svd.Config{Dims: 3, Epochs: 25, Seed: seed ^ 0x5f},
		CompressionRatio: 8,
		FoldInEpochs:     25,
	}
}

// workloads lists the benchmark's workloads in reporting order.
func workloads() []*workload {
	return []*workload{searchFanout(), cfExact(), aggLiveMixed(), aggStraggler()}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
