package cluster

import (
	"math"
	"testing"

	"accuracytrader/internal/stats"
)

// poissonArrivals generates an open-loop arrival sequence at rate req/s
// over horizonMs.
func poissonArrivals(rng *stats.RNG, ratePerSec, horizonMs float64) []float64 {
	var out []float64
	t := 0.0
	for {
		t += rng.Exp(ratePerSec / 1000)
		if t >= horizonMs {
			return out
		}
		out = append(out, t)
	}
}

func baseConfig(arrivals []float64) Config {
	return Config{
		Components: 8,
		Arrivals:   arrivals,
		Work:       []WorkModel{{FullUnits: 1000, SynopsisUnits: 10, NumGroups: 10}},
		UnitCostMs: 0.01, // full scan = 10ms
		Technique:  Basic,
		DeadlineMs: 100,
	}
}

func TestValidation(t *testing.T) {
	cfg := baseConfig([]float64{0})
	cfg.Components = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected components error")
	}
	cfg = baseConfig([]float64{5, 1})
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected unsorted arrivals error")
	}
	cfg = baseConfig([]float64{0})
	cfg.UnitCostMs = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected unit cost error")
	}
	cfg = baseConfig([]float64{0})
	cfg.Work = []WorkModel{{}, {}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected work model count error")
	}
}

func TestLightLoadLatencyEqualsServiceTime(t *testing.T) {
	// One request on an idle system: latency = full scan time exactly.
	cfg := baseConfig([]float64{0})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, op := range res.Ops[0] {
		if math.Abs(op.LatencyMs-10) > 1e-9 {
			t.Fatalf("component %d latency %v, want 10", c, op.LatencyMs)
		}
	}
}

func TestQueueingDelayAccumulates(t *testing.T) {
	// Two simultaneous requests: the second waits for the first.
	cfg := baseConfig([]float64{0, 0})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Ops[0][0].LatencyMs-10) > 1e-9 {
		t.Fatalf("first request latency %v", res.Ops[0][0].LatencyMs)
	}
	if math.Abs(res.Ops[1][0].LatencyMs-20) > 1e-9 {
		t.Fatalf("second request latency %v", res.Ops[1][0].LatencyMs)
	}
}

func TestOverloadExplodesBasic(t *testing.T) {
	// Utilization 2x: tail latency must grow far beyond service time.
	rng := stats.NewRNG(1)
	arr := poissonArrivals(rng, 200, 10000) // 200 req/s x 10ms = 2.0 util
	cfg := baseConfig(arr)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tail := stats.Percentile(res.ComponentLatencies(), 99.9)
	if tail < 1000 {
		t.Fatalf("overloaded tail %vms, expected queueing blow-up", tail)
	}
}

func TestAccuracyTraderBoundedUnderOverload(t *testing.T) {
	rng := stats.NewRNG(2)
	arr := poissonArrivals(rng, 200, 10000)
	cfg := baseConfig(arr)
	cfg.Technique = AccuracyTrader
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tail := stats.Percentile(res.ComponentLatencies(), 99.9)
	// Tail stays near the deadline: bounded by deadline + one set + synopsis.
	if tail > cfg.DeadlineMs+15 {
		t.Fatalf("AccuracyTrader tail %vms breaches deadline bound", tail)
	}
	// Under heavy load most sub-operations process few sets.
	var sets stats.Summary
	for _, ops := range res.Ops {
		for _, op := range ops {
			sets.Add(float64(op.SetsProcessed))
		}
	}
	if sets.Mean() > 9 {
		t.Fatalf("mean sets %v under overload; expected adaptation", sets.Mean())
	}
}

func TestAccuracyTraderProcessesAllAtLightLoad(t *testing.T) {
	cfg := baseConfig([]float64{0})
	cfg.Technique = AccuracyTrader
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.Ops[0] {
		if op.SetsProcessed != 10 {
			t.Fatalf("light load processed %d of 10 sets", op.SetsProcessed)
		}
		if op.SynopsisOnly {
			t.Fatal("light load should not be synopsis-only")
		}
	}
}

func TestAccuracyTraderHonorsIMax(t *testing.T) {
	cfg := baseConfig([]float64{0})
	cfg.Technique = AccuracyTrader
	cfg.IMaxFrac = 0.4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.Ops[0] {
		if op.SetsProcessed != 4 {
			t.Fatalf("imax 40%% processed %d of 10 sets", op.SetsProcessed)
		}
	}
}

func TestAccuracyTraderAlwaysProducesSynopsisResult(t *testing.T) {
	// Extreme overload: sub-operations still finish (synopsis only), and
	// latency may exceed the deadline only by the synopsis processing time
	// plus queueing of other synopsis-sized ops.
	rng := stats.NewRNG(3)
	arr := poissonArrivals(rng, 2000, 3000)
	cfg := baseConfig(arr)
	cfg.Technique = AccuracyTrader
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	synOnly := 0
	total := 0
	for _, ops := range res.Ops {
		for _, op := range ops {
			total++
			if op.SynopsisOnly {
				synOnly++
			}
			if op.LatencyMs <= 0 {
				t.Fatal("unfinished sub-operation")
			}
		}
	}
	if synOnly == 0 {
		t.Fatal("extreme overload should force synopsis-only results")
	}
}

func TestReissueCutsStragglerTail(t *testing.T) {
	// One node is 8x slower half the time; hedging should cut the tail
	// relative to Basic under light load.
	rng := stats.NewRNG(4)
	arr := poissonArrivals(rng, 10, 30000)
	slow := func(c int, tm float64) float64 {
		if c == 0 && int(tm/1000)%2 == 0 {
			return 8
		}
		return 1
	}
	cfgB := baseConfig(arr)
	cfgB.Slowdown = slow
	resB, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	cfgR := baseConfig(arr)
	cfgR.Slowdown = slow
	cfgR.Technique = Reissue
	cfgR.HedgeFloorMs = 12
	resR, err := Run(cfgR)
	if err != nil {
		t.Fatal(err)
	}
	tailB := stats.Percentile(resB.ComponentLatencies(), 99)
	tailR := stats.Percentile(resR.ComponentLatencies(), 99)
	if tailR >= tailB {
		t.Fatalf("reissue tail %v not below basic %v", tailR, tailB)
	}
	// Some hedges must have fired.
	hedged := 0
	for _, ops := range resR.Ops {
		for _, op := range ops {
			if op.Hedged {
				hedged++
			}
		}
	}
	if hedged == 0 {
		t.Fatal("no hedges fired")
	}
}

func TestCompletedFraction(t *testing.T) {
	cfg := baseConfig([]float64{0, 0, 0, 0})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential service: latencies 10,20,30,40ms; with a 25ms deadline,
	// requests 0,1 complete fully, request 2 and 3 not at all.
	if f := res.CompletedFraction(0, 25); f != 1 {
		t.Fatalf("req0 fraction %v", f)
	}
	if f := res.CompletedFraction(2, 25); f != 0 {
		t.Fatalf("req2 fraction %v", f)
	}
}

func TestTailLatencyWindow(t *testing.T) {
	cfg := baseConfig([]float64{0, 5000})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	early := res.TailLatency(50, 0, 1000)
	late := res.TailLatency(50, 4000, 6000)
	if math.IsNaN(early) || math.IsNaN(late) {
		t.Fatal("window percentiles missing")
	}
	if math.IsNaN(res.TailLatency(50, 9000, 10000)) == false {
		t.Fatal("empty window should be NaN")
	}
}

func TestDeterminism(t *testing.T) {
	rng := stats.NewRNG(5)
	arr := poissonArrivals(rng, 50, 5000)
	for _, tech := range []Technique{Basic, Reissue, AccuracyTrader} {
		cfg := baseConfig(arr)
		cfg.Technique = tech
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := range a.Ops {
			for c := range a.Ops[r] {
				if a.Ops[r][c] != b.Ops[r][c] {
					t.Fatalf("%v not deterministic at (%d,%d)", tech, r, c)
				}
			}
		}
	}
}

func TestTechniqueString(t *testing.T) {
	if Basic.String() != "Basic" || Reissue.String() != "Request reissue" ||
		AccuracyTrader.String() != "AccuracyTrader" {
		t.Fatal("names wrong")
	}
	if Technique(9).String() == "" {
		t.Fatal("unknown technique should still format")
	}
}

func TestWorkModelMeanSetUnits(t *testing.T) {
	w := WorkModel{FullUnits: 100, NumGroups: 4}
	if w.MeanSetUnits() != 25 {
		t.Fatalf("MeanSetUnits = %v", w.MeanSetUnits())
	}
	if (WorkModel{}).MeanSetUnits() != 0 {
		t.Fatal("zero groups should give 0")
	}
}

func TestServiceLatencies(t *testing.T) {
	cfg := baseConfig([]float64{0, 0})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Request 0 completes at 10ms on every component; request 1 at 20ms.
	wait := res.ServiceLatencies(true, 0)
	if math.Abs(wait[0]-10) > 1e-9 || math.Abs(wait[1]-20) > 1e-9 {
		t.Fatalf("wait-all latencies = %v", wait)
	}
	// Partial composition caps at the deadline.
	part := res.ServiceLatencies(false, 15)
	if math.Abs(part[0]-10) > 1e-9 || math.Abs(part[1]-15) > 1e-9 {
		t.Fatalf("partial latencies = %v", part)
	}
}
