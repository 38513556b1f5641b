package experiments

import (
	"strings"
	"testing"
)

// TestIngestCompareQuick runs the streaming-ingestion validation at test
// scale and asserts every contract: merged live answers clear the
// (frozen-calibrated) Bounded floor at every probe, compacted epochs are
// bit-identical to from-scratch rebuilds, epoch swaps never let the
// result cache serve stale, a v5 append travels the wire and becomes
// visible to exact queries, and the live read path allocates nothing
// (waived, but still measured, under the race detector).
func TestIngestCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming + loopback serving run")
	}
	ic, err := RunIngestCompare(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if ic.Violations() != 0 {
		t.Errorf("contract violations: %d floor (of %d probes), %d bit-identity (of %d epochs), %d stale serves",
			ic.FloorViol, ic.FloorChecks, ic.IdentityViol, ic.IdentityProbes, ic.StaleServes)
	}
	if ic.FloorChecks == 0 || ic.IdentityProbes != ingestIdentityProbes || ic.CacheHits == 0 {
		t.Errorf("a phase measured nothing: %d floor probes, %d/%d identity probes, %d cache hits",
			ic.FloorChecks, ic.IdentityProbes, ingestIdentityProbes, ic.CacheHits)
	}
	if !ic.WireOK {
		t.Errorf("wire: %s", ic.WireErr)
	}
	if !ic.ZeroAllocOK {
		t.Errorf("read path: %.1f allocs/op on Snapshot+QueryLevel, want 0", ic.ReadAllocs)
	}
	out := ic.Render()
	for _, want := range []string{"INGESTCOMPARE", "bit-identity", "stale serves", "read path", "wire:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
