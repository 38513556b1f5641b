package experiments

import (
	"strings"
	"testing"
)

// TestIngestCompareQuick runs the streaming-ingestion validation at test
// scale and asserts every contract: merged live answers clear the
// (frozen-calibrated) Bounded floor at every probe, compacted epochs are
// bit-identical to from-scratch rebuilds, epoch swaps never let the
// result cache serve stale, and a v5 append travels the wire and
// becomes visible to exact queries.
func TestIngestCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("streaming + loopback serving run")
	}
	ic, err := RunIngestCompare(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkContracts(t, "ingestcompare", ic)
	if ic.FloorChecks == 0 || ic.IdentityProbes != ingestIdentityProbes || ic.CacheHits == 0 {
		t.Errorf("a phase measured nothing: %d floor probes, %d/%d identity probes, %d cache hits",
			ic.FloorChecks, ic.IdentityProbes, ingestIdentityProbes, ic.CacheHits)
	}
	out := ic.Render()
	for _, want := range []string{"INGESTCOMPARE", "streaming:", "stale serves"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
