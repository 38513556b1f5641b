package experiments

import (
	"strings"
	"testing"
)

// TestAuditCompareQuick runs the audit-plane validation at test scale
// and asserts every contract: zero-cost off/non-sampled paths, healthy
// bound coverage at or above nominal confidence, stale-calibration
// detection within the sample budget, epoch-swap drift safety,
// burn-rate windows matching the naive reference, and tail retention.
func TestAuditCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback serving run")
	}
	sc := QuickScale()
	sc.Shards = 3
	ac, err := RunAuditCompare(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkContracts(t, "auditcompare", ac)
	// The stale table must actually be detected as stale: the realized
	// error is at least twice the error the table claims.
	if 1-ac.BiasRealized < 2*(1-ac.BiasClaimed) {
		t.Errorf("bias pass claimed %.4f vs realized %.4f: gap too small to demonstrate staleness",
			ac.BiasClaimed, ac.BiasRealized)
	}
	out := ac.Render()
	for _, want := range []string{"AUDITCOMPARE", "Reading:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
