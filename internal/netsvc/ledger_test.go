package netsvc

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden from this run")

// ledgerConn counts one accepted component connection's traffic: bytes
// each way, frames written (a connWriter hands the connection exactly one
// Write per frame) and frames read (counted off the length prefixes).
type ledgerConn struct {
	net.Conn
	c *ledgerCounts
	// The read side's frame parser; only the connection's reader touches it.
	hdr  [4]byte
	nhdr int
	body int
}

// ledgerCounts is a deployment's component traffic.
type ledgerCounts struct {
	framesIn, framesOut, bytesIn, bytesOut atomic.Int64
}

func (c *ledgerConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.bytesIn.Add(int64(n))
	for p := b[:n]; len(p) > 0; {
		if c.body > 0 {
			k := min(c.body, len(p))
			c.body, p = c.body-k, p[k:]
			continue
		}
		k := copy(c.hdr[c.nhdr:], p)
		c.nhdr, p = c.nhdr+k, p[k:]
		if c.nhdr == len(c.hdr) {
			c.body, c.nhdr = int(binary.LittleEndian.Uint32(c.hdr[:])), 0
			c.c.framesIn.Add(1)
		}
	}
	return n, err
}

func (c *ledgerConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.c.bytesOut.Add(int64(n))
	c.c.framesOut.Add(1)
	return n, err
}

type ledgerListener struct {
	net.Listener
	c *ledgerCounts
}

func (l ledgerListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &ledgerConn{Conn: conn, c: l.c}, nil
}

// ledgerRow is one request shape's per-request counts.
type ledgerRow struct {
	shape                                            string
	allocs, allocBytes, framesIn, framesOut, in, out float64
	hedges, retries, faults                          float64
}

func (r ledgerRow) String() string {
	return fmt.Sprintf("%-24s %7.2f %8.1f %6.2f %6.2f %8.1f %8.1f %6.2f %6.2f %6.2f", r.shape, r.allocs, r.allocBytes,
		r.framesIn, r.framesOut, r.in, r.out, r.hedges, r.retries, r.faults)
}

const ledgerHeader = `# The work ledger: per-request counts of one request at a time through a
# loopback deployment (8 component servers, a bare front server, a
# WaitAll aggregator, UnitCost 0), with the garbage collector off and one
# P. "deadline": each call under a 2 s client context deadline, the
# benchmark client's. "agg Hedged": a Hedged aggregator (hedge floor
# 250 ms, so no replica is sent) and BestEffort level-0 requests that
# carry their own 1 s deadline, agg-straggler's gather path.
# allocs and alloc B: heap allocations and the bytes they asked for,
# per request, client to components and back. f and b: the component
# servers' frames and wire bytes per request, read (in) and written
# (out). hedge, retry and fault: the gather core's replicas sent,
# re-dispatches and peer failures counted, per request. Rewrite with go
# test ./internal/netsvc -run TestWorkLedger -update.`

const ledgerColumns = "# shape                   allocs  alloc B   f.in  f.out     b.in    b.out  hedge  retry  fault"

// TestWorkLedger holds the serve path's per-request counts to a golden
// file: for each request shape, the allocations one request costs across
// the whole deployment, their bytes, the frames and wire bytes its component
// servers read and write, and the gather core's hedges, retries and
// faults (Aggregator.Stats deltas; a healthy shape has none). Counts, not times: the garbage collector is
// off (a cycle that empties the sync.Pools would move an allocation
// count), one P runs everything (each P has its own pool slots), one
// request is in flight, the data and request lists are seeded and no
// work is modelled. What still moves is a pool's high-water mark: how
// many records are out at once depends on how the goroutines of one
// request interleave, so now and then a pool grows by a record, one
// allocation in a few hundred requests. The allocation count is the
// fewest of four rounds, the steady state such growth only adds to, and
// every run gives the same ledger; the same holds for their bytes. A change that moves a count shows as
// a diff of this file.
func TestWorkLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const shards, warm, rounds, perRound = 8, 256, 4, 64

	searchComps, searchReqs := searchFixture(t, shards, 16)
	cfComps, cfReqs := cfFixture(t, shards, 16)
	aggComps := buildAggComps(t, shards)
	aggAt := func(slo uint8, level int16) []*wire.Request {
		reqs := make([]*wire.Request, 16)
		for i := range reqs {
			reqs[i] = aggReq(agg.Sum, float64(i)/4, math.Inf(1))
			reqs[i].SLO, reqs[i].Level = slo, level
		}
		return reqs
	}
	hedged := AggregatorOptions{Policy: service.Hedged, Deadline: 2 * time.Second, HedgeFloor: 250 * time.Millisecond}
	shapes := []struct {
		name string
		h    Handler
		reqs []*wire.Request
		agg  AggregatorOptions
		// ctxDeadline: each call runs under a 2 s client context deadline;
		// reqDeadline: each request carries its own, 1 s from its send.
		ctxDeadline, reqDeadline bool
	}{
		{"search fan-out", NewSearchBackend(searchComps, BackendOptions{}), searchReqs, waitAll, false, false},
		{"search fan-out, deadline", NewSearchBackend(searchComps, BackendOptions{}), searchReqs, waitAll, true, false},
		{"cf Exact", NewCFBackend(cfComps, BackendOptions{}), cfReqs, waitAll, false, false},
		{"agg level 0", NewAggBackend(aggComps, BackendOptions{}), aggAt(wire.SLOBestEffort, 0), waitAll, false, false},
		{"agg Exact", NewAggBackend(aggComps, BackendOptions{}), aggAt(wire.SLOExact, wire.NoLevel), waitAll, false, false},
		{"agg Hedged", NewAggBackend(aggComps, BackendOptions{}), aggAt(wire.SLOBestEffort, 0), hedged, false, true},
	}
	// The runtime's own allocations (timers, channels, goroutines) are part
	// of the counts, and they differ between toolchains and word sizes: the
	// golden names the one it was taken with.
	toolchain := "# toolchain " + runtime.Version() + " " + runtime.GOARCH
	lines := []string{ledgerHeader, toolchain, ledgerColumns}
	for _, sh := range shapes {
		counts := new(ledgerCounts)
		lb := startLoopback(t, LoopbackSpec{Components: shards, Handler: every(sh.h), Agg: sh.agg, Front: &FrontSpec{},
			WrapListener: func(_ int, l net.Listener) net.Listener { return ledgerListener{l, counts} }})
		call := func(i int) {
			req, ctx := sh.reqs[i%len(sh.reqs)], context.Background()
			if sh.reqDeadline {
				r := *req
				r.Deadline = time.Now().Add(time.Second).UnixNano()
				req = &r
			}
			if sh.ctxDeadline {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 2*time.Second)
				defer cancel()
			}
			rep, err := lb.Client.Call(ctx, req)
			if err != nil || rep.Status != wire.ReplyOK || len(rep.SubStatus) != shards {
				t.Fatalf("%s: reply %+v, err %v", sh.name, rep, err)
			}
		}
		for i := range warm {
			call(i)
		}
		fin, fout, bin, bout := counts.framesIn.Load(), counts.framesOut.Load(), counts.bytesIn.Load(), counts.bytesOut.Load()
		st0 := lb.Agg.Stats()
		allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for r := range rounds {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := range perRound {
				call(r*perRound + i)
			}
			runtime.ReadMemStats(&m1)
			allocs, bytes = min(allocs, m1.Mallocs-m0.Mallocs), min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		}
		st := lb.Agg.Stats()
		per := func(d int64, n int) float64 { return float64(d) / float64(n) }
		lines = append(lines, ledgerRow{sh.name, per(int64(allocs), perRound), per(int64(bytes), perRound),
			per(counts.framesIn.Load()-fin, rounds*perRound), per(counts.framesOut.Load()-fout, rounds*perRound),
			per(counts.bytesIn.Load()-bin, rounds*perRound), per(counts.bytesOut.Load()-bout, rounds*perRound),
			per(st.Hedges-st0.Hedges, rounds*perRound), per(st.Retries-st0.Retries, rounds*perRound),
			per(st.Faults-st0.Faults, rounds*perRound)}.String())
		lb.Close()
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "ledger.golden")
	if *updateLedger {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !strings.Contains(string(want), "\n"+toolchain+"\n") {
		t.Skipf("%s was taken with another toolchain; rewrite it with -update under this one to compare:\n%s", path, got)
	}
	if got != string(want) {
		t.Errorf("the work ledger moved (rewrite %s with -update if the change is intended):\ngot\n%swant\n%s", path, got, want)
	}
}
