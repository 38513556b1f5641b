package experiments

import (
	"strings"
	"testing"
)

// TestFaultCompareQuick runs the kill/stall/heal sweep at quick scale
// and pins the failure-domain contracts: zero degradation-contract
// violations anywhere in the sweep, BestEffort availability at least
// (N-1)/N of healthy under 1-of-N loss, and breakers re-closing within
// the probe budget after each heal.
func TestFaultCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback fault-injection sweep: seconds of injected stalls")
	}
	fc, err := RunFaultCompare(QuickScale())
	if err != nil {
		t.Fatal(err)
	}

	checkContracts(t, "faultcompare", fc)

	healthy := fc.Phase("healthy")
	if healthy == nil {
		t.Fatal("missing healthy phase")
	}
	floor := float64(fc.Servers-1) / float64(fc.Servers) * healthy.AnsweredFrac(faultClassBestEffort)
	for _, name := range []string{"crash comp0", "stall comp0"} {
		p := fc.Phase(name)
		if p == nil {
			t.Fatalf("missing phase %q", name)
		}
		if got := p.AnsweredFrac(faultClassBestEffort); got < floor {
			t.Errorf("%s: BestEffort answered fraction %.3f < (N-1)/N of healthy (%.3f)", name, got, floor)
		}
	}

	// Both heals must have re-closed the breaker via the background
	// prober within the probe budget (RunFaultCompare errors out past a
	// hard 4x ceiling; the soft budget is asserted here).
	if len(fc.RecloseMs) != 2 {
		t.Fatalf("reclose measurements = %v, want one per heal", fc.RecloseMs)
	}
	for i, ms := range fc.RecloseMs {
		if ms > faultRecloseBudgetMs {
			t.Errorf("heal %d: breaker took %.1f ms to re-close, budget %.0f ms", i+1, ms, faultRecloseBudgetMs)
		}
	}

	if fc.BreakerOpens == 0 {
		t.Error("breaker never opened across a crash and a stall")
	}

	// Every call resolves to exactly one outcome; transport errors would
	// mean the (unfaulted) front server itself wobbled.
	for _, p := range fc.Phases {
		accounted := p.Unavailable + p.Errors
		for _, a := range p.Answered {
			accounted += a
		}
		if accounted != p.Calls {
			t.Errorf("phase %q: %d outcomes for %d calls", p.Name, accounted, p.Calls)
		}
		if p.Errors > 0 {
			t.Errorf("phase %q: %d transport/server errors", p.Name, p.Errors)
		}
	}

	out := fc.Render()
	for _, want := range []string{"FAULTCOMPARE", "breaker", "violations"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// AnsweredFrac returns the answered fraction of one SLO class.
func (p *FaultPhase) AnsweredFrac(class int) float64 {
	if p.Offered[class] == 0 {
		return 0
	}
	return float64(p.Answered[class]) / float64(p.Offered[class])
}

// Phase returns the first phase with the given name (nil if none).
func (fc *FaultCompare) Phase(name string) *FaultPhase {
	for _, p := range fc.Phases {
		if p.Name == name {
			return p
		}
	}
	return nil
}
