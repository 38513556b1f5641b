package netsvc

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/faultinject"
	"accuracytrader/internal/wire"
)

// idReply is a sub-reply whose payload is a function of its ID — length
// and every value — so a frame that was interleaved with another, or
// encoded from a buffer another writer had reused, cannot decode to a
// consistent record.
func idReply(id uint64, floats int) *wire.SubReply {
	num := make([]float64, floats)
	for i := range num {
		num[i] = float64(id)
	}
	return &wire.SubReply{ID: id, Kind: wire.KindCF, Level: wire.NoLevel, CF: &wire.CFResult{Num: num, Den: num[:1]}}
}

func checkIDReply(t *testing.T, rep *wire.SubReply, floats int) {
	t.Helper()
	if rep.CF == nil || len(rep.CF.Num) != floats || len(rep.CF.Den) != 1 {
		t.Fatalf("frame %d: payload shape %+v, want %d floats", rep.ID, rep.CF, floats)
	}
	for _, v := range rep.CF.Num {
		if v != float64(rep.ID) {
			t.Fatalf("frame %d carries another frame's payload (%v)", rep.ID, v)
		}
	}
}

// TestConnWriterConcurrentFrames: N goroutines writing distinct records
// through one connWriter arrive as N whole, un-interleaved, individually
// decodable frames — over a plain pipe, and over a fault-injection conn
// in Slow mode, whose delayed Write holds the writer (and its buffer)
// while the other goroutines queue behind it.
func TestConnWriterConcurrentFrames(t *testing.T) {
	const writers, each = 16, 25
	floatsOf := func(id uint64) int { return 1 + int(id%97) }
	for _, tc := range []struct {
		name string
		wrap func(net.Conn) net.Conn
	}{
		{"pipe", func(c net.Conn) net.Conn { return c }},
		{"slow fault conn", func(c net.Conn) net.Conn {
			s := faultinject.NewScript("peer", 1)
			s.SetSlow(50 * time.Microsecond)
			s.Set(faultinject.Slow)
			return s.WrapConn(c)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			near, far := net.Pipe()
			defer near.Close()
			defer far.Close()
			w := &connWriter{c: tc.wrap(near)}
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						id := uint64(g*each + i + 1)
						if err := w.write(idReply(id, floatsOf(id))); err != nil {
							t.Errorf("write %d: %v", id, err)
							return
						}
					}
				}(g)
			}
			fr := newFrameReader(far, 0)
			seen := map[uint64]bool{}
			for len(seen) < writers*each {
				body, err := fr.next()
				if err != nil {
					t.Fatalf("after %d frames: %v", len(seen), err)
				}
				rep, err := wire.DecodeSubReply(body)
				if err != nil {
					t.Fatalf("after %d frames: %v", len(seen), err)
				}
				if seen[rep.ID] {
					t.Fatalf("frame %d arrived twice", rep.ID)
				}
				seen[rep.ID] = true
				checkIDReply(t, rep, floatsOf(rep.ID))
			}
			wg.Wait()
		})
	}
}

// TestConnWriterPartitionedConn: a partitioned conn swallows writes
// (Write reports success, nothing leaves); the frame after the heal is
// built in the same reused buffer and must arrive whole.
func TestConnWriterPartitionedConn(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	s := faultinject.NewScript("peer", 1)
	w := &connWriter{c: s.WrapConn(near)}
	s.Set(faultinject.Partition)
	if err := w.write(idReply(1, 500)); err != nil {
		t.Fatalf("partitioned write: %v", err)
	}
	s.Heal()
	go func() {
		if err := w.write(idReply(2, 30)); err != nil {
			t.Errorf("healed write: %v", err)
		}
	}()
	body, err := newFrameReader(far, 0).next()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wire.DecodeSubReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != 2 {
		t.Fatalf("frame %d arrived, want 2 (1 was swallowed by the partition)", rep.ID)
	}
	checkIDReply(t, rep, 30)
}

// TestOversizedFrameDoesNotPinBuffer: one 1 MiB frame (legal up to
// wire.MaxFrame) followed by a small one leaves neither the writer nor
// the reader holding more than retainBuf — the buffers are per
// connection, and connections are what a hostile peer can multiply.
func TestOversizedFrameDoesNotPinBuffer(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	w := &connWriter{c: near}
	fr := newFrameReader(far, 0)
	const bigFloats = 1 << 17 // 8 bytes each: a 1 MiB frame
	retained := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return cap(w.buf)
	}
	send := func(id uint64, floats int) *wire.SubReply {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- w.write(idReply(id, floats)) }()
		body, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		rep, err := wire.DecodeSubReply(body)
		if err != nil {
			t.Fatal(err)
		}
		checkIDReply(t, rep, floats)
		return rep
	}

	send(1, 100)
	if c := retained(); c == 0 || c > retainBuf {
		t.Fatalf("writer keeps %d bytes after a small frame, want a reusable buffer within %d", c, retainBuf)
	}
	send(2, bigFloats)
	if c := cap(fr.buf); c < 8*bigFloats {
		t.Fatalf("reader buffer is %d bytes after a %d-byte frame: the frame was not read in place", c, 8*bigFloats)
	}
	if c := retained(); c > retainBuf {
		t.Fatalf("writer pins %d bytes after an oversized frame, bound %d", c, retainBuf)
	}
	send(3, 100)
	if c := cap(fr.buf); c > retainBuf {
		t.Fatalf("reader pins %d bytes after the frame following an oversized one, bound %d", c, retainBuf)
	}
	if c := retained(); c == 0 || c > retainBuf {
		t.Fatalf("writer keeps %d bytes after a small frame, want a reusable buffer within %d", c, retainBuf)
	}
}

// The allocation budgets of one Exact request through a bare front
// server (built without a frontend, so one with no controller) to 8
// shards: 18 frames, 8 sub-operation dispatches and a merge; and of one
// Bounded agg request through a frontend with a controller. Each budget
// is the count the test measures plus ~10%, so a regression of one
// allocation per frame (18) trips it. The deadline-carrying case is the
// benchmark client's shape — a fresh context.WithTimeout per call — and
// its budget includes that context.
//
// Measured here: search 12 without a deadline and 20 with one, CF 14 and
// 22, Bounded agg 13 and 21. Before the gather core recycled its per-call
// record (the call, its subsets and reply channel, a hedge or deadline
// timer) and stopped deriving a context for a caller without a deadline:
// search 21 and 24, CF 23 and 26, Bounded agg 22 and 25. Before each
// component server decoded its sub-requests into recycled records (a job, request and payload object
// per sub-request, and a CF request's two lists): search 29 and 32, CF
// 47 and 50, Bounded agg 30 and 33. Before sub-reply records were pooled on
// both sides of the wire and a CF sub-operation's ratings with them (a
// component's reply and its result arrays, the aggregator's decoded
// record and its arrays, a CF sub-operation's ratings): search 45 and 48,
// CF 95 and 98, Bounded agg 62 and 65. At the commit before each request frame was decoded into
// the job that serves it, with a search request's query and every search
// result's hits inline (a job record beside each served request, a
// string per query, a hit list per search reply and two per merge):
// search 73 and 76, CF 104 and 107. Before a served job became its own
// context and a sub-reply one object: search 148 and 153, CF 143 and 148.
const (
	searchRoundTripBudget         = 13
	searchDeadlineRoundTripBudget = 22
	cfRoundTripBudget             = 15
	cfDeadlineRoundTripBudget     = 24
	aggRoundTripBudget            = 14
	aggDeadlineRoundTripBudget    = 23
)

// roundTripAllocs measures the allocations of one client call of next's
// request, without a deadline and with the benchmark client's.
func roundTripAllocs(t *testing.T, cl *Client, next func() *wire.Request) (bare, withDeadline float64) {
	t.Helper()
	call := func(ctx context.Context) {
		rep, err := cl.Call(ctx, next())
		if err != nil || rep.Status != wire.ReplyOK || len(rep.SubStatus) != 8 {
			t.Fatalf("reply %+v, err %v", rep, err)
		}
	}
	bare = testing.AllocsPerRun(300, func() { call(context.Background()) })
	withDeadline = testing.AllocsPerRun(300, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		call(ctx)
		cancel()
	})
	return bare, withDeadline
}

func checkRoundTripAllocs(t *testing.T, what string, got float64, budget int) {
	t.Helper()
	t.Logf("%s round trip over 8 shards: %.1f allocations", what, got)
	if got > float64(budget) {
		t.Errorf("%s round trip allocates %.1f times, budget %d", what, got, budget)
	}
}

func TestSearchRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops at random)")
	}
	const shards = 8
	comps, reqs := searchFixture(t, shards, 16)
	cl := startLoopback(t, LoopbackSpec{Components: shards, Handler: every(NewSearchBackend(comps, BackendOptions{})),
		Agg: waitAll, Front: &FrontSpec{}}).Client
	i := 0
	bare, withDeadline := roundTripAllocs(t, cl, func() *wire.Request {
		i++
		return &wire.Request{Kind: wire.KindSearch, Subset: -1, SLO: wire.SLOExact, Level: wire.NoLevel,
			Search: &wire.SearchRequest{Query: reqs[i%len(reqs)].Search.Query, K: 10}}
	})
	checkRoundTripAllocs(t, "Exact search", bare, searchRoundTripBudget)
	checkRoundTripAllocs(t, "Exact search with a deadline", withDeadline, searchDeadlineRoundTripBudget)
}

func TestCFRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops at random)")
	}
	const shards = 8
	comps, reqs := cfFixture(t, shards, 16)
	cl := startLoopback(t, LoopbackSpec{Components: shards, Handler: every(NewCFBackend(comps, BackendOptions{})),
		Agg: waitAll, Front: &FrontSpec{}}).Client
	i := 0
	bare, withDeadline := roundTripAllocs(t, cl, func() *wire.Request {
		i++
		return reqs[i%len(reqs)]
	})
	checkRoundTripAllocs(t, "Exact CF", bare, cfRoundTripBudget)
	checkRoundTripAllocs(t, "Exact CF with a deadline", withDeadline, cfDeadlineRoundTripBudget)
}

func TestAggRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops at random)")
	}
	const shards = 8
	cl := startLoopback(t, LoopbackSpec{Components: shards, Handler: every(NewAggBackend(buildAggComps(t, shards), BackendOptions{})),
		Agg: waitAll, Front: calibratedFront(t, nil, ServerOptions{})}).Client
	i := 0
	bare, withDeadline := roundTripAllocs(t, cl, func() *wire.Request {
		i++
		req := aggReq(agg.Sum, float64(i%16)/4, math.Inf(1))
		req.SLO, req.MinAccuracy = wire.SLOBounded, 0.75
		return req
	})
	checkRoundTripAllocs(t, "Bounded agg", bare, aggRoundTripBudget)
	checkRoundTripAllocs(t, "Bounded agg with a deadline", withDeadline, aggDeadlineRoundTripBudget)
}
