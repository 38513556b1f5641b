package netsvc

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/wire"
)

// subRequest is a whole-service request template turned into the
// sub-request an aggregator sends subset 1.
func subRequest(tmpl *wire.Request, id uint64) *wire.Request {
	sub := *tmpl
	sub.ID, sub.Seq, sub.Subset = id, id, 1
	return &sub
}

// TestWarmComponentServerDoesNotAllocate: a warm component server
// answers a sub-request over a real connection without allocating — the
// frame read into the connection's buffer, decoded into a pooled request
// record, served by the workload skeleton into a pooled sub-reply (or,
// past its deadline, answered Skipped in one), encoded into the writer's
// buffer, and both records recycled. The peer writes a pre-encoded
// frame and reads the reply into a buffer of its own, so every
// allocation counted is the server's.
func TestWarmComponentServerDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops at random)")
	}
	searchComps, searchReqs := searchFixture(t, 2, 1)
	cfComps, cfReqs := cfFixture(t, 2, 1)
	aggComps := buildAggComps(t, 2)
	aggBounded := aggReq(agg.Sum, 0.5, math.Inf(1))
	aggBounded.SLO, aggBounded.Level = wire.SLOBestEffort, 0
	aggExpired := *aggBounded
	aggExpired.Deadline = 1 // long past: answered Skipped at dequeue
	for _, tc := range []struct {
		name   string
		h      Handler
		req    *wire.Request
		status uint8
	}{
		{"Exact search", NewSearchBackend(searchComps, BackendOptions{}), searchReqs[0], wire.StatusOK},
		{"Exact CF", NewCFBackend(cfComps, BackendOptions{}), cfReqs[0], wire.StatusOK},
		{"agg at level 0", NewAggBackend(aggComps, BackendOptions{}), aggBounded, wire.StatusOK},
		{"agg past its deadline", NewAggBackend(aggComps, BackendOptions{}), &aggExpired, wire.StatusSkipped},
	} {
		_, addr := startServer(t, tc.h, ServerOptions{})
		c := dialRaw(t, addr)
		defer c.Close()
		frame := wire.AppendRequestFrame(nil, subRequest(tc.req, 9))
		reply := make([]byte, 64<<10)
		roundTrip := func() []byte {
			if _, err := c.Write(frame); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(c, reply[:4]); err != nil {
				t.Fatal(err)
			}
			body := reply[:binary.LittleEndian.Uint32(reply)]
			if _, err := io.ReadFull(c, body); err != nil {
				t.Fatal(err)
			}
			return body
		}
		rep, err := wire.DecodeSubReply(roundTrip())
		if err != nil || rep.Status != tc.status || rep.ID != 9 {
			t.Fatalf("%s: reply %+v, err %v", tc.name, rep, err)
		}
		if n := testing.AllocsPerRun(200, func() { roundTrip() }); n != 0 {
			t.Errorf("%s: a warm component server allocates %.0f times per sub-request, want 0", tc.name, n)
		}
	}
}

// TestArmedJobIsNeverRecycled: a job whose Done armed a timer is not
// handed back to the pool when it ends. finish stops the timer, but a
// callback already running still ends the job it was armed for, so a
// recycled one would end the next request's: here that late callback is
// called by hand after the armed job ended, and every job decoded after
// it must still be live. An unarmed job is recycled (the pool hands it
// to the next decode, in a build that does not drop pooled records).
func TestArmedJobIsNeverRecycled(t *testing.T) {
	frame := wire.AppendRequestFrame(nil, &wire.Request{Kind: wire.KindAgg, Subset: 0, Level: wire.NoLevel,
		Deadline: time.Now().Add(time.Hour).UnixNano(), Agg: &wire.AggRequest{Op: 1, Hi: 1}})
	decode := func() *job {
		j, err := decodeCompJob(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		j.dl = j.req.Deadline
		return j
	}
	for range 20 {
		armed := decode()
		armed.Done()
		armed.finish()
		recycle(armed)
		next := decode()
		armed.expire() // the callback that lost the race with finish's Stop
		if err := next.Err(); err != nil || armed == next {
			t.Fatalf("the job decoded after an armed one reads %v (same record: %v)", err, armed == next)
		}
		next.finish()
		recycle(next)
	}
	if raceEnabled {
		return
	}
	j := decode()
	j.finish()
	recycle(j)
	if next := decode(); next != j {
		t.Error("an unarmed job was not recycled")
	}
}

// TestDeadlineExpiringAtRelease is the served race test for recycled
// jobs (run it under -race). Every other sub-request's handler arms its
// job's Done and returns just before the deadline, a few hundred
// microseconds out, so the timer fires about when the reply is written
// and the record released: finish's Stop then loses to a callback that
// has yet to run. The rest carry a far deadline and must find their job
// live, with their own deadline, whatever callbacks of earlier jobs are
// still running.
func TestDeadlineExpiringAtRelease(t *testing.T) {
	const pairs = 300
	far := time.Now().Add(time.Hour)
	var (
		mu   sync.Mutex
		errs []string
	)
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		dl, _ := ctx.Deadline()
		if req.Seq%2 == 1 {
			_ = ctx.Done()
			for time.Until(dl) > 10*time.Microsecond {
			}
		} else if ctx.Err() != nil || !dl.Equal(far) {
			mu.Lock()
			errs = append(errs, fmt.Sprintf("a far-deadline job reads %v at %v", ctx.Err(), dl))
			mu.Unlock()
		}
		return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel, Agg: &wire.AggResult{}}
	}
	_, addr := startServer(t, h, ServerOptions{Workers: 2})
	c := dialRaw(t, addr)
	defer c.Close()
	fr := newFrameReader(c, 0)
	var frames []byte
	for i := range 2 * pairs {
		req := aggReq(agg.Sum, 0, 1)
		req.ID, req.Seq, req.Subset, req.Deadline = uint64(i+1), uint64(i), 0, far.UnixNano()
		if i%2 == 1 {
			req.Deadline = time.Now().Add(200 * time.Microsecond).UnixNano()
		}
		frames = wire.AppendRequestFrame(frames, req)
		if i%2 == 0 {
			continue
		}
		if _, err := c.Write(frames); err != nil {
			t.Fatal(err)
		}
		frames = frames[:0]
		for range 2 {
			body, err := fr.next()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := wire.DecodeSubReply(body); err != nil {
				t.Fatal(err)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, e := range errs {
		t.Error(e)
	}
}
