package frontend

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"accuracytrader/internal/service"
)

// degradeLevelAcc is the finest level's calibrated accuracy in the
// degrade fixtures: a 3-of-4 answer claims 0.75 × it = 0.72.
const degradeLevelAcc = 0.96

// degradeFrontend serves four subsets in process behind a controller
// whose finest level claims degradeLevelAcc; subset 0 fails while the
// returned switch is set.
func degradeFrontend(t *testing.T) (*Frontend, *atomic.Bool) {
	t.Helper()
	var lose atomic.Bool
	handlers := make([]service.Handler, 4)
	for i := range handlers {
		subset := i
		handlers[i] = func(context.Context, interface{}) (interface{}, error) {
			if subset == 0 && lose.Load() {
				return nil, errors.New("injected fault")
			}
			return subset, nil
		}
	}
	cl, err := service.New(handlers, service.WaitAll, service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	ctrl, err := NewController(ControllerConfig{Levels: 2, LevelAccuracy: []float64{0.5, degradeLevelAcc}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cl, Options{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	return f, &lose
}

// TestDegradeRuleInProcess pins the per-SLO rule on the in-process
// runtime, as netsvc.TestDegradationSLORule does over the wire: a
// healthy gather is a plain answer at the level's claim; with a stratum
// lost, BestEffort answers 3 of 4 at the discounted claim, Bounded
// answers while the claim clears its floor and is refused with the
// typed error otherwise, and Exact is always refused.
func TestDegradeRuleInProcess(t *testing.T) {
	f, lose := degradeFrontend(t)
	call := func(slo SLO) (*Result, error) { return f.Call(context.Background(), nil, slo) }
	discounted := degradeLevelAcc * 3 / 4

	res, err := call(BestEffortSLO())
	if err != nil || res.Answered != 4 || res.EstimatedAccuracy != degradeLevelAcc {
		t.Fatalf("healthy: result %+v, err %v", res, err)
	}

	lose.Store(true)
	res, err = call(BestEffortSLO())
	if err != nil || res.Answered != 3 || len(res.Sub) != 4 || math.Abs(res.EstimatedAccuracy-discounted) > 1e-12 {
		t.Fatalf("best-effort under loss: result %+v, err %v; want 3 of 4 at claim %v", res, err, discounted)
	}
	res, err = call(BoundedSLO(0.7))
	if err != nil || res.Answered != 3 {
		t.Fatalf("bounded 0.7 under loss: result %+v, err %v", res, err)
	}

	var refused *UnavailableError
	res, err = call(BoundedSLO(0.9))
	if !errors.As(err, &refused) {
		t.Fatalf("bounded 0.9 under loss: err %v, want an *UnavailableError", err)
	}
	if refused.Kind != Bounded || refused.Answered != 3 || refused.Total != 4 || refused.Floor != 0.9 ||
		math.Abs(refused.Discounted-discounted) > 1e-12 {
		t.Fatalf("bounded 0.9 refusal = %+v", refused)
	}
	if res == nil || res.Answered != 3 {
		t.Fatalf("a refusal comes with the gather it refused: %+v", res)
	}

	if _, err = call(ExactSLO()); !errors.As(err, &refused) || refused.Kind != Exact || refused.Floor != 1 {
		t.Fatalf("exact under loss: err %v", err)
	}

	lose.Store(false)
	if res, err = call(BoundedSLO(0.9)); err != nil || res.Answered != 4 {
		t.Fatalf("post-heal bounded 0.9: result %+v, err %v", res, err)
	}
}

// TestClaimDoesNotAllocate: the rule runs on every gather, so settling a
// full fan-out, or a BestEffort partial one, allocates nothing.
func TestClaimDoesNotAllocate(t *testing.T) {
	full := make([]service.SubResult, 8)
	for i := range full {
		full[i].Value = true
	}
	partial := append([]service.SubResult(nil), full...)
	partial[3] = service.SubResult{Err: service.ErrQueueFull}
	for _, c := range []struct {
		name     string
		subs     []service.SubResult
		slo      SLO
		answered int
	}{
		{"full bounded", full, BoundedSLO(0.9), 8},
		{"partial best-effort", partial, BestEffortSLO(), 7},
	} {
		n := testing.AllocsPerRun(100, func() {
			if answered, _, err := Claim(c.subs, c.slo, 1); answered != c.answered || err != nil {
				t.Fatalf("%s: answered %d, err %v", c.name, answered, err)
			}
		})
		if n != 0 {
			t.Fatalf("%s: %v allocs per Claim, want 0", c.name, n)
		}
	}
}
