package experiments

import (
	"strings"
	"testing"
)

// TestTraceCompareQuick runs the tracing validation at test scale and
// asserts both contracts hold: cross-process span stitching and
// critical-path budget accounting within tolerance.
func TestTraceCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback serving run")
	}
	sc := QuickScale()
	sc.Shards = 3
	tc, err := RunTraceCompare(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkContracts(t, "tracecompare", tc)
	if tc.Answered == 0 || tc.FanOuts == 0 {
		t.Fatalf("no answered fan-outs recorded: answered=%d fanouts=%d", tc.Answered, tc.FanOuts)
	}
	out := tc.Render()
	for _, want := range []string{"TRACECOMPARE", "TRACE SUMMARY"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if tc.Summary == nil || tc.Summary.Answered == 0 {
		t.Fatal("summary empty")
	}
}
