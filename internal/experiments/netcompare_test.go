package experiments

import (
	"strings"
	"testing"
)

// TestNetCompareQuick runs the full networked-vs-in-process comparison
// at quick scale on loopback sockets and pins the acceptance
// behaviours: its contracts (wire parity for all three workloads, and
// every Frontend+AT reply within its class or typed unavailable), and
// both tail-tolerant gather policies beating WaitAll's p99.9 over real
// sockets.
func TestNetCompareQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback load run: seconds per configuration")
	}
	nc, err := RunNetCompare(QuickScale())
	if err != nil {
		t.Fatal(err)
	}

	checkContracts(t, "netcompare", nc)

	for _, runtime := range []string{"net", "inproc"} {
		for _, name := range []string{"WaitAll", "PartialGather", "Hedged"} {
			row := nc.Row(runtime, name)
			if row == nil {
				t.Fatalf("missing row %s/%s", runtime, name)
			}
			if row.Calls < 20 {
				t.Fatalf("%s/%s fired only %d requests", runtime, name, row.Calls)
			}
		}
	}
	// The load is the load: every row was offered exactly the schedule.
	for _, row := range nc.Rows {
		if row.Calls != nc.Arrivals {
			t.Fatalf("%s/%s offered %d requests, schedule has %d", row.Runtime, row.Name, row.Calls, nc.Arrivals)
		}
	}

	waitAll := nc.Row("net", "WaitAll")
	partial := nc.Row("net", "PartialGather")
	hedged := nc.Row("net", "Hedged")
	fe := nc.Row("net", "Frontend+AT")
	if fe == nil {
		t.Fatal("missing net Frontend+AT row")
	}

	// The interference stall dwarfs the deadline, so WaitAll's p99.9
	// must carry it while the tail-tolerant policies do not.
	if waitAll.P999Ms < netStallMs {
		t.Fatalf("WaitAll p99.9 = %.1f ms, expected >= the %v ms stall", waitAll.P999Ms, netStallMs)
	}
	if calm(t, "PartialGather p99.9 < WaitAll p99.9", partial.MaxLagMs, waitAll.MaxLagMs) && partial.P999Ms >= waitAll.P999Ms {
		t.Fatalf("PartialGather p99.9 %.1f ms does not beat WaitAll %.1f ms", partial.P999Ms, waitAll.P999Ms)
	}
	if calm(t, "Hedged p99.9 < WaitAll p99.9", hedged.MaxLagMs, waitAll.MaxLagMs) && hedged.P999Ms >= waitAll.P999Ms {
		t.Fatalf("Hedged p99.9 %.1f ms does not beat WaitAll %.1f ms", hedged.P999Ms, waitAll.P999Ms)
	}
	if hedged.HedgePct <= 0 {
		t.Fatal("Hedged row issued no hedges")
	}

	// The calibrated ladder must be usable: its finest level has to
	// clear the Bounded floor, or the controller could never serve the
	// class at all.
	finest := nc.LevelAccuracy[len(nc.LevelAccuracy)-1]
	if finest < 0.90 {
		t.Fatalf("finest calibrated level accuracy %.4f cannot satisfy Bounded{0.90}", finest)
	}

	out := nc.Render()
	for _, want := range []string{"Frontend+AT", "inproc", "p99.9", "unavail", "nominal", "realised", "max send lag"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

// Row returns the first row matching runtime and name (nil if none).
func (nc *NetCompare) Row(runtime, name string) *NetRow {
	for _, r := range nc.Rows {
		if r.Runtime == runtime && r.Name == name {
			return r
		}
	}
	return nil
}
