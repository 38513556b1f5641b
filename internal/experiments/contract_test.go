package experiments

import (
	"os"
	"strings"
	"testing"
)

// namedContracts is the set of promises each *compare experiment makes
// — the ones that hold on any host and gate the CLI's exit code.
// EXPERIMENTS.md § Contracts documents the same table.
var namedContracts = map[string][]string{
	"netcompare":    {"wire parity cf", "wire parity search", "wire parity agg", "floor or typed"},
	"cachecompare":  {"coalescing", "cache floor"},
	"tracecompare":  {"stitching", "accounting"},
	"faultcompare":  {"degradation", "peer health"},
	"ingestcompare": {"floor", "bit-identity", "cache coherence", "wire"},
	"auditcompare":  {"calibration", "detection", "drift", "retention"},
	"costcompare":   {"conservation", "attribution", "frontier"},
}

// calmLagMs is the send lag (a report row's MaxLagMs: how far the load
// generator fell behind its schedule, which is host scheduling noise
// charged to the latencies of the requests it delayed) under which a
// row's tail percentiles describe its policy rather than the host. It
// sits well below the 50 ms gather deadlines and 100 ms modeled stalls
// the p99.9-shape assertions tell apart; calm rows read 1-7 ms.
const calmLagMs = 20.0

// calm reports whether every compared row's own worst send lag stayed
// under calmLagMs. When one did not, the caller skips the tail-shape
// assertion that compares those rows — never the test, never a contract:
// a host stall is not a regression, and the run says so in the log.
func calm(t *testing.T, what string, lagsMs ...float64) bool {
	t.Helper()
	for _, lag := range lagsMs {
		if lag >= calmLagMs {
			t.Logf("%s: not asserted, a compared row's max send lag was %.1f ms (>= %.0f ms): the host stalled the load generator", what, lag, calmLagMs)
			return false
		}
	}
	return true
}

// checkContracts is the one judge of a *compare report, called by each
// Test*CompareQuick on the report it already ran: every contract holds
// (reporting its detail when not), names are non-empty and unique, the
// experiment's named set is exactly what the report promises, and the
// rendering shows every contract by name.
func checkContracts(t *testing.T, experiment string, r interface {
	Report
	Contracts() []Contract
}) {
	t.Helper()
	out := r.Render()
	seen := map[string]bool{}
	for _, c := range r.Contracts() {
		if !c.OK {
			t.Errorf("%s contract %q violated: %s", experiment, c.Name, c.Detail)
		}
		if c.Name == "" || c.Detail == "" || seen[c.Name] {
			t.Errorf("%s contract %+v: empty or duplicate name, or no detail", experiment, c)
		}
		seen[c.Name] = true
		if !strings.Contains(out, c.Name) {
			t.Errorf("%s render does not show contract %q:\n%s", experiment, c.Name, out)
		}
	}
	want := namedContracts[experiment]
	for _, name := range want {
		if !seen[name] {
			t.Errorf("%s report does not promise %q (has %v)", experiment, name, r.Contracts())
		}
	}
	if len(seen) != len(want) {
		t.Errorf("%s promises %d contracts, the named set has %d", experiment, len(seen), len(want))
	}
}

// TestCheckNamesViolatedContracts pins the gate: a report whose parity
// contract is forced false fails Check with an error naming it and its
// detail, and only it; a report without contracts passes.
func TestCheckNamesViolatedContracts(t *testing.T) {
	nc := &NetCompare{}
	nc.promise("wire parity cf", false, "reply %d differs", 2)
	nc.promise("wire parity agg", true, "3 requests")
	err := Check(nc)
	if err == nil {
		t.Fatal("a violated contract must fail Check")
	}
	if msg := err.Error(); !strings.Contains(msg, "wire parity cf: reply 2 differs") || strings.Contains(msg, "wire parity agg") {
		t.Fatalf("error must name exactly the violated contract: %v", err)
	}
	if !strings.Contains(nc.Render(), "FAIL") {
		t.Fatalf("render does not mark the violated contract:\n%s", nc.Render())
	}
	nc.list[0].OK = true
	if err := Check(nc); err != nil {
		t.Fatalf("all contracts hold: %v", err)
	}
	if err := Check(&Headline{}); err != nil {
		t.Fatalf("a report without contracts passes: %v", err)
	}
}

// TestContractsDocumented keeps EXPERIMENTS.md § Contracts equal to the
// named set: every experiment's table row lists each of its contracts.
func TestContractsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for experiment, names := range namedContracts {
		var row string
		for _, line := range strings.Split(string(doc), "\n") {
			if strings.HasPrefix(line, "| `"+experiment+"` |") {
				row = line
			}
		}
		for _, name := range names {
			if !strings.Contains(row, name) {
				t.Errorf("EXPERIMENTS.md § Contracts row for `%s` does not list %q", experiment, name)
			}
		}
	}
}
