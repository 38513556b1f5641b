package netsvc

import (
	"context"
	"testing"
	"time"

	"accuracytrader/internal/audit"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// costStack is auditStack plus cost attribution: the front server
// meters every answered request into the returned table.
func costStack(t *testing.T, cfg audit.Config) (*Client, *FrontServer, *audit.Auditor, *cost.Table) {
	t.Helper()
	table := cost.NewTable()
	cl, fs, auditor := auditStack(t, cfg, table)
	return cl, fs, auditor, table
}

// TestCostAttributionEndToEnd drives tenant-tagged requests over the
// wire and asserts the cost table attributes real resource usage to
// the right (tenant, class, workload, level) key: CPU from component
// exec spans, scanned units from the engines, queue time, and wire
// bytes covering all four frame directions.
func TestCostAttributionEndToEnd(t *testing.T) {
	cl, _, _, table := costStack(t, audit.Config{SampleFraction: 0.000001})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	const calls = 3
	for i := 0; i < calls; i++ {
		req := boundedCoarseReq(0.1)
		req.Tenant = "acme"
		rep, err := cl.Call(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != wire.ReplyOK {
			t.Fatalf("reply: %+v", rep)
		}
	}

	v := table.Snapshot()
	if v.Requests != calls {
		t.Fatalf("table requests = %d, want %d", v.Requests, calls)
	}
	if len(v.Rows) != 1 {
		t.Fatalf("rows = %+v, want exactly one key", v.Rows)
	}
	row := v.Rows[0]
	if row.Tenant != "acme" || row.Class != "Bounded" || row.Workload != "agg" {
		t.Fatalf("row key = %s/%s/%s/%d, want acme/Bounded/agg", row.Tenant, row.Class, row.Workload, row.Level)
	}
	if row.Requests != calls {
		t.Fatalf("row requests = %d, want %d", row.Requests, calls)
	}
	u := row.Totals
	if u.CPUNs == 0 || u.Scanned == 0 || u.QueueNs == 0 || u.WireBytes == 0 || u.WallNs == 0 {
		t.Fatalf("totals have zero dimensions: %+v", u)
	}
	// Per-tenant rows must sum to the global totals exactly (the same
	// integers feed both sides).
	if u != v.Global {
		t.Fatalf("single row %+v != global %+v", u, v.Global)
	}
	// Wire bytes cover at least the four frames of each fan-out hop:
	// more than the client request frame alone.
	if u.WireBytes < calls*4*8 {
		t.Fatalf("wire bytes = %d, implausibly low", u.WireBytes)
	}
}

// TestInternalTrafficExcluded is the regression contract for audit
// replays: a replay is measurement, not service, so it must appear in
// neither the per-class SLO windows nor the cost table — no Exact-class
// rows from the replays' Exact recomputations, no internal-tenant rows,
// and SLO totals that count exactly the client's calls.
func TestInternalTrafficExcluded(t *testing.T) {
	cl, fs, auditor, table := costStack(t, audit.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	const calls = 4
	for i := 0; i < calls; i++ {
		rep, err := cl.Call(ctx, boundedCoarseReq(0.9999))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != wire.ReplyOK {
			t.Fatalf("reply: %+v", rep)
		}
	}
	if !auditor.Drain(5 * time.Second) {
		t.Fatalf("auditor never drained: %+v", auditor.Stats())
	}
	if st := auditor.Stats(); st.Audited != calls {
		t.Fatalf("audited = %d, want %d (every call sampled)", st.Audited, calls)
	}

	// SLO windows: the Bounded class saw exactly the client's calls; the
	// Exact class saw nothing, even though every replay recomputed at
	// Exact class through the same composition path.
	tr := fs.slo
	if total, _, _, _ := tr.Window(wire.SLOBounded, 0); total != calls {
		t.Fatalf("Bounded window total = %d, want %d", total, calls)
	}
	if total, _, _, _ := tr.Window(wire.SLOExact, 0); total != 0 {
		t.Fatalf("Exact window total = %d, want 0 (audit replays must not count)", total)
	}

	// Cost table: only the client's own requests are billed. Replays
	// open no account, so nothing lands under Exact class or the
	// internal tenant.
	v := table.Snapshot()
	if v.Requests != calls {
		t.Fatalf("table requests = %d, want %d (replays must not be metered)", v.Requests, calls)
	}
	for _, row := range v.Rows {
		if row.Class == "Exact" {
			t.Fatalf("Exact-class cost row from an audit replay: %+v", row)
		}
		if row.Tenant == cost.InternalTenant {
			t.Fatalf("internal-tenant cost row from an audit replay: %+v", row)
		}
	}
}

// TestRefreshBilledToInternalTenant asserts cache-refresh work is
// metered — it spends real backend capacity — but under the reserved
// internal tenant, never a client's.
func TestRefreshBilledToInternalTenant(t *testing.T) {
	_, fs, _, table := costStack(t, audit.Config{SampleFraction: 0.000001})

	// (Without a controller NewFront refuses a cache, so the refresh hook is
	// called directly; the cost accounting is what's under test here.)
	v, _, ok := fs.refreshToExact(0, boundedCoarseReq(0.1))
	if !ok || v == nil {
		t.Fatalf("refreshToExact = (%v, _, %v), want a successful recompute", v, ok)
	}

	snap := table.Snapshot()
	if len(snap.Rows) != 1 {
		t.Fatalf("rows = %+v, want exactly the refresh row", snap.Rows)
	}
	row := snap.Rows[0]
	if row.Tenant != cost.InternalTenant || row.Class != "Exact" || row.Workload != "agg" {
		t.Fatalf("refresh billed to %s/%s/%s, want %s/Exact/agg", row.Tenant, row.Class, row.Workload, cost.InternalTenant)
	}
	if row.Totals.CPUNs == 0 || row.Totals.Scanned == 0 {
		t.Fatalf("refresh row has no usage: %+v", row.Totals)
	}
}

// TestOriginCharges walks the charges table: the same pass, asked for by
// each origin, must land in exactly the planes its row names — every
// origin traced, only a client counted by the SLO windows and offered to
// the auditor, a refresh billed to the internal tenant, an audit replay
// billed to nobody.
func TestOriginCharges(t *testing.T) {
	for _, tc := range []struct {
		name    string
		from    origin
		outcome uint8  // the trace's cache outcome
		slo     int64  // SLO window delta, all classes
		tenant  string // the one cost row's tenant ("" = no row at all)
		sampled int64  // samples offered to the auditor
	}{
		{"client", originClient, obs.CacheNone, 1, "acme", 1},
		{"refresh", originRefresh, obs.CacheRefresh, 0, cost.InternalTenant, 0},
		{"audit", originAudit, obs.CacheRefresh, 0, "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A closed gate parks the auditor's own replays, so the only
			// pass in the stack is the one made here.
			_, fs, auditor, table := costStack(t, audit.Config{Gate: func() bool { return false }})
			req := boundedCoarseReq(0.1)
			req.Tenant = "acme"
			if tc.from != originClient {
				req = exactOf(req)
			}
			rep, _, row := fs.pass(internalJob(req, time.Time{}), tc.from)
			if rep.Status != wire.ReplyOK {
				t.Fatalf("reply: %+v", rep)
			}
			if metered := row.acct != nil; metered != (tc.tenant != "") {
				t.Fatalf("pass metered = %v, want %v", metered, tc.tenant != "")
			}
			row.close(0)

			traces := fs.tracer.Snapshot(0)
			if len(traces) != 1 || traces[0].ID != rep.Trace || traces[0].CacheOutcome != tc.outcome {
				t.Fatalf("traces = %+v, want one with id %d and cache outcome %d", traces, rep.Trace, tc.outcome)
			}
			var total int64
			for class := uint8(0); class <= wire.SLOBestEffort; class++ {
				n, _, _, _ := fs.slo.Window(class, 0)
				total += n
			}
			if total != tc.slo {
				t.Fatalf("SLO windows counted %d requests, want %d", total, tc.slo)
			}
			rows := table.Snapshot().Rows
			if tc.tenant == "" && len(rows) != 0 {
				t.Fatalf("cost rows = %+v, want none", rows)
			}
			if tc.tenant != "" && (len(rows) != 1 || rows[0].Tenant != tc.tenant || rows[0].Totals.Scanned == 0) {
				t.Fatalf("cost rows = %+v, want one metered row for tenant %q", rows, tc.tenant)
			}
			if got := auditor.Stats().Sampled; got != tc.sampled {
				t.Fatalf("auditor sampled %d, want %d", got, tc.sampled)
			}
		})
	}
}
