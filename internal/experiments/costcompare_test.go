package experiments

import (
	"strings"
	"testing"
)

// TestCostCompareQuick runs the cost-plane validation at test scale and
// asserts every contract: folded child costs explain a bounded share of
// parent wall time, per-tenant rows sum to the global totals exactly,
// and the frontier join is monotone.
func TestCostCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback serving run")
	}
	sc := QuickScale()
	sc.Shards = 3
	cc, err := RunCostCompare(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkContracts(t, "costcompare", cc)
	out := cc.Render()
	for _, want := range []string{"COSTCOMPARE", "Reading:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
