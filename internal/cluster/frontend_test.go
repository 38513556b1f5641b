package cluster

import (
	"math"
	"reflect"
	"testing"

	"accuracytrader/internal/frontend"
	"accuracytrader/internal/stats"
)

func countRejected(res *Result) int {
	n := 0
	for _, r := range res.Rejected {
		if r {
			n++
		}
	}
	return n
}

// tokenBucket admits rate requests a second of the clock it is given,
// in bursts of up to burst: a policy that reads only time.
type tokenBucket struct{ rate, burst, tokens, lastMs float64 }

func newTokenBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

func (b *tokenBucket) Admit(nowMs float64, _ frontend.Load) frontend.Decision {
	b.tokens = math.Min(b.burst, b.tokens+(nowMs-b.lastMs)/1000*b.rate)
	b.lastMs = nowMs
	if b.tokens < 1 {
		return frontend.Reject
	}
	b.tokens--
	return frontend.Admit
}

func TestFrontendTokenBucketShedsOnVirtualClock(t *testing.T) {
	// 200 req/s offered against a 100/s bucket: roughly half the
	// requests are shed, and the bucket refills on virtual time.
	rng := stats.NewRNG(11)
	arr := poissonArrivals(rng, 200, 10000)
	cfg := baseConfig(arr)
	cfg.Frontend = &FrontendConfig{Options: frontend.Options{
		Admission: []frontend.AdmissionPolicy{newTokenBucket(100, 10)},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rejected := countRejected(res)
	admitted := len(arr) - rejected
	// ~1000 tokens refill over the 10s window (plus the initial burst).
	if admitted < 900 || admitted > 1100 {
		t.Fatalf("admitted %d of %d, want ~1000", admitted, len(arr))
	}
	// Shed requests carry no sub-operations and are excluded from the
	// latency population; they complete nothing and were never
	// answered.
	sawRejected := false
	svc := res.ServiceLatencies(true, 0)
	for i, ops := range res.Ops {
		if !res.Rejected[i] {
			continue
		}
		sawRejected = true
		if ops[0].LatencyMs != 0 {
			t.Fatalf("rejected request %d has latency %v", i, ops[0].LatencyMs)
		}
		if f := res.CompletedFraction(i, 1e9); f != 0 {
			t.Fatalf("rejected request %d completed fraction %v", i, f)
		}
		if !math.IsNaN(svc[i]) {
			t.Fatalf("rejected request %d service latency %v, want NaN", i, svc[i])
		}
	}
	if !sawRejected {
		t.Fatal("no rejected request to check")
	}
	if len(res.ComponentLatencies()) != admitted*cfg.Components {
		t.Fatal("ComponentLatencies did not exclude rejected requests")
	}
}

func TestFrontendMaxInflightBoundsQueues(t *testing.T) {
	// 2x overload on Basic: unbounded queues without a frontend, but a
	// concurrency cap sheds the excess and keeps the tail bounded by
	// limit x service time.
	rng := stats.NewRNG(12)
	arr := poissonArrivals(rng, 200, 10000)
	open, err := Run(baseConfig(arr))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(arr)
	cfg.Frontend = &FrontendConfig{Options: frontend.Options{
		Replicas:  1,
		Admission: []frontend.AdmissionPolicy{frontend.NewMaxInflight(8)},
	}}
	capped, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if countRejected(capped) == 0 {
		t.Fatal("2x overload shed nothing")
	}
	tailOpen := stats.Percentile(open.ComponentLatencies(), 99.9)
	tailCap := stats.Percentile(capped.ComponentLatencies(), 99.9)
	// 8 in-flight requests x 10ms service = at most ~80ms of queueing
	// ahead of any admitted sub-operation.
	if tailCap > 100 {
		t.Fatalf("capped tail %vms, want bounded by the inflight cap", tailCap)
	}
	if tailCap >= tailOpen {
		t.Fatalf("capped tail %v not below open tail %v", tailCap, tailOpen)
	}
}

func TestFrontendDegradationCoarsensUnderLoad(t *testing.T) {
	// A deliberately heavy fixed synopsis saturates at 1200 req/s; the
	// degradation controller steers requests to coarser ladder levels
	// and keeps the tail below the fixed-synopsis run.
	rng := stats.NewRNG(13)
	arr := poissonArrivals(rng, 1200, 5000)
	work := WorkModel{
		FullUnits:      1000,
		SynopsisUnits:  120,
		NumGroups:      10,
		SynopsisLadder: []float64{5, 30, 120},
	}
	base := Config{
		Components: 4,
		Arrivals:   arr,
		Work:       []WorkModel{work},
		UnitCostMs: 0.01,
		Technique:  AccuracyTrader,
		DeadlineMs: 20,
	}
	fixed, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := frontend.NewController(frontend.ControllerConfig{
		Levels:        3,
		LevelAccuracy: []float64{0.6, 0.85, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Frontend = &FrontendConfig{Options: frontend.Options{Controller: ctrl}, QueueCap: 16}
	deg, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tf := stats.Percentile(fixed.ComponentLatencies(), 99.9)
	td := stats.Percentile(deg.ComponentLatencies(), 99.9)
	if td >= tf {
		t.Fatalf("degraded tail %v not below fixed %v", td, tf)
	}
	// Under sustained overload most requests run below the finest level.
	coarse := 0
	for i, lv := range deg.Level {
		if deg.Rejected[i] {
			continue
		}
		if lv < 2 {
			coarse++
		}
	}
	if coarse < len(arr)/2 {
		t.Fatalf("only %d of %d requests degraded", coarse, len(arr))
	}
}

func TestFrontendSLOClasses(t *testing.T) {
	// Alpha 1 makes the controller track raw load exactly, and an
	// inflight saturation of 1 saturates it as soon as one request is
	// in flight: the first (Exact) request sees load 0 and the finest
	// level, the later two see load 1 — Bounded stops at its accuracy
	// floor, BestEffort takes the coarsest level. The Exact request
	// runs a full scan.
	ctrl, err := frontend.NewController(frontend.ControllerConfig{
		Levels:             3,
		LevelAccuracy:      []float64{0.6, 0.9, 1},
		Alpha:              1,
		InflightSaturation: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	classes := []frontend.SLO{
		frontend.ExactSLO(),
		frontend.BoundedSLO(0.85),
		frontend.BestEffortSLO(),
	}
	work := WorkModel{
		FullUnits:      1000,
		SynopsisUnits:  120,
		NumGroups:      10,
		SynopsisLadder: []float64{5, 30, 120},
	}
	cfg := Config{
		Components: 2,
		Arrivals:   []float64{0, 0.5, 1},
		Work:       []WorkModel{work},
		UnitCostMs: 0.01,
		Technique:  AccuracyTrader,
		DeadlineMs: 100,
		Frontend: &FrontendConfig{
			Options: frontend.Options{Controller: ctrl},
			ClassOf: func(r int) frontend.SLO { return classes[r] },
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level[0] != 2 {
		t.Fatalf("exact level = %d, want finest", res.Level[0])
	}
	if res.Level[1] != 1 {
		t.Fatalf("bounded level = %d, want accuracy floor 1", res.Level[1])
	}
	if res.Level[2] != 0 {
		t.Fatalf("best-effort level = %d, want coarsest", res.Level[2])
	}
	// The exact request's first sub-operation is a full scan: 10ms of
	// service, not synopsis + sets.
	if res.Ops[0][0].LatencyMs < 10 {
		t.Fatalf("exact request latency %v, want a full 10ms scan", res.Ops[0][0].LatencyMs)
	}
	if res.Ops[0][0].SetsProcessed != 0 {
		t.Fatalf("exact request processed sets: %+v", res.Ops[0][0])
	}
	if res.Class[0].Kind != frontend.Exact || res.Class[2].Kind != frontend.BestEffort {
		t.Fatalf("classes = %v", res.Class)
	}
}

func TestFrontendRoutingAvoidsSlowComponent(t *testing.T) {
	// Component 0 is permanently 8x slower. Fixed placement pins subset
	// 0 to it; least-loaded routing over a 2-replica map drains subset
	// 0's work through component 1 once component 0's queue builds.
	rng := stats.NewRNG(14)
	arr := poissonArrivals(rng, 50, 10000)
	slow := func(c int, _ float64) float64 {
		if c == 0 {
			return 8
		}
		return 1
	}
	base := baseConfig(arr)
	base.Slowdown = slow
	pinned, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(arr)
	cfg.Slowdown = slow
	cfg.Frontend = &FrontendConfig{Options: frontend.Options{Replicas: 2, Router: frontend.NewLeastLoaded()}}
	routed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp := stats.Percentile(pinned.ComponentLatencies(), 99)
	tr := stats.Percentile(routed.ComponentLatencies(), 99)
	if tr >= tp {
		t.Fatalf("routed tail %v not below pinned %v", tr, tp)
	}
}

// TestFrontendDefaultsAreTheLiveOnes pins the one place the routing
// defaults live: a zero frontend.Options runs exactly like the explicit
// 2-replica, least-loaded configuration, sub-operation for
// sub-operation.
func TestFrontendDefaultsAreTheLiveOnes(t *testing.T) {
	rng := stats.NewRNG(16)
	arr := poissonArrivals(rng, 120, 5000)
	run := func(opts frontend.Options) *Result {
		cfg := baseConfig(arr)
		cfg.Slowdown = func(c int, at float64) float64 { return 1 + float64((c+int(at/50))%3) }
		cfg.Frontend = &FrontendConfig{Options: opts}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	zero := run(frontend.Options{})
	explicit := run(frontend.Options{Replicas: 2, Router: frontend.NewLeastLoaded()})
	if !reflect.DeepEqual(zero, explicit) {
		t.Fatal("zero frontend.Options and {Replicas: 2, Router: least-loaded} simulate differently")
	}
	if pinned := run(frontend.Options{Replicas: 1}); reflect.DeepEqual(zero, pinned) {
		t.Fatal("the comparison cannot tell routing apart: 1 replica simulates like 2")
	}
}

func TestFrontendDegradationRequiresLadder(t *testing.T) {
	ctrl, err := frontend.NewController(frontend.ControllerConfig{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig([]float64{0}) // WorkModel without SynopsisLadder
	cfg.Technique = AccuracyTrader
	cfg.Frontend = &FrontendConfig{Options: frontend.Options{Controller: ctrl}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected missing-ladder error")
	}
	// A ladder whose depth disagrees with the controller would silently
	// clamp levels, skewing accuracy-vs-level analysis — rejected.
	cfg.Work = []WorkModel{{
		FullUnits: 1000, SynopsisUnits: 10, NumGroups: 10,
		SynopsisLadder: []float64{2, 5, 10}, // 3 levels vs controller's 2
	}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected level-mismatch error")
	}
}

func TestFrontendDeterminism(t *testing.T) {
	rng := stats.NewRNG(15)
	arr := poissonArrivals(rng, 300, 5000)
	run := func() *Result {
		ctrl, err := frontend.NewController(frontend.ControllerConfig{Levels: 3})
		if err != nil {
			t.Fatal(err)
		}
		work := WorkModel{
			FullUnits:      1000,
			SynopsisUnits:  10,
			NumGroups:      10,
			SynopsisLadder: []float64{2, 5, 10},
		}
		cfg := baseConfig(arr)
		cfg.Work = []WorkModel{work}
		cfg.Technique = AccuracyTrader
		cfg.Frontend = &FrontendConfig{Options: frontend.Options{
			Controller: ctrl,
			Admission: []frontend.AdmissionPolicy{
				newTokenBucket(250, 20),
				frontend.NewQueueWatermark(0.5, 0.9),
			},
		}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for r := range a.Ops {
		if a.Rejected[r] != b.Rejected[r] || a.Level[r] != b.Level[r] {
			t.Fatalf("frontend not deterministic at request %d", r)
		}
		for c := range a.Ops[r] {
			if a.Ops[r][c] != b.Ops[r][c] {
				t.Fatalf("ops not deterministic at (%d,%d)", r, c)
			}
		}
	}
}
