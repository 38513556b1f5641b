package netsvc

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/wire"
)

// exactCall asks a component's aggregator for q's Exact answer and
// holds it to exact, bit for bit.
func exactCall(t *testing.T, a *Aggregator, q agg.Query, exact agg.Result) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	req := aggReq(q.Op, q.Lo, q.Hi)
	req.SLO = wire.SLOExact
	subs, err := a.Call(ctx, req)
	if err != nil || !subs[0].Answered() {
		t.Fatalf("exact call: %+v, %v", subs, err)
	}
	got := AggResultOf(subs[0].Value.(*wire.SubReply).Agg)
	for k := range exact.Sum {
		if math.Float64bits(got.Sum[k]) != math.Float64bits(exact.Sum[k]) || math.Float64bits(got.Cnt[k]) != math.Float64bits(exact.Cnt[k]) {
			t.Fatalf("key %d: (%v, %v), exact (%v, %v)", k, got.Sum[k], got.Cnt[k], exact.Sum[k], exact.Cnt[k])
		}
	}
}

// dialRaw opens a bare connection to addr, for a peer that speaks the
// protocol only as far as an attack needs.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestUnreadRepliesMissTheWriteDeadline keeps the measurement behind the
// write deadline: a peer sends a bounded number of agg requests whose
// replies are 128 KiB each to a Workers: 1 component server and never
// reads them. Without the deadline the one worker blocked in its write
// once the socket buffers filled (31 replies, about 4 MiB, over
// loopback), and every other client's request waited behind it for
// good. With the deadline (lowered to 200 ms) the write fails, the
// peer's connection closes and is counted, and a second client's Exact
// reply arrives bit-exact; Close leaves no goroutine behind.
func TestUnreadRepliesMissTheWriteDeadline(t *testing.T) {
	const floods = 128
	comps := buildAggComps(t, 1)
	wide := make([]float64, 4096) // four arrays: 128 KiB a reply
	exactH := NewAggBackend(comps, BackendOptions{})
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		if req.Agg.Lo < 0 {
			return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
				Agg: &wire.AggResult{Sum: wide, Cnt: wide, SumVar: wide, CntVar: wide}}
		}
		return exactH(ctx, req)
	}
	checkLeaks := leakCheck(t)
	srv := NewServer(h, ServerOptions{Workers: 1})
	srv.writeTimeout = 200 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	addr := l.Addr().String()

	peer := dialRaw(t, addr)
	peer.(*net.TCPConn).SetReadBuffer(4 << 10) // the peer's own socket: a small window, soon full
	var frames []byte
	for i := range floods {
		req := aggReq(agg.Sum, -1, 1)
		req.ID, req.Subset, req.SLO = uint64(i+1), 0, wire.SLOExact
		frames = wire.AppendRequestFrame(frames, req)
	}
	if _, err := peer.Write(frames); err != nil {
		t.Fatal(err)
	}
	// Queued-or-running plus dequeued counts every enqueued request once
	// and a running one twice: past floods, every flood request is queued
	// and the worker is in one, before the second client asks.
	for deadline := time.Now().Add(5 * time.Second); srv.pending.Load()+srv.requests.Load() <= floods && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	a, err := NewAggregator([]string{addr}, waitAll)
	if err != nil {
		t.Fatal(err)
	}
	q := agg.Query{Op: agg.Sum, Lo: 0, Hi: math.Inf(1)}
	start := time.Now()
	exactCall(t, a, q, agg.ExactResult(comps[0], q))
	if st := srv.Stats(); st.WriteTimeouts != 1 {
		t.Fatalf("%d writes missed their deadline, want the flooding peer's one (stats %+v)", st.WriteTimeouts, st)
	}
	t.Logf("second client answered after %v; %+v", time.Since(start), srv.Stats())
	for deadline := time.Now().Add(5 * time.Second); openConns(srv.srvCore) > 1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := openConns(srv.srvCore); n != 1 {
		t.Fatalf("%d connections open, want only the second client's: the server closes the flooding peer's", n)
	}
	peer.Close()
	a.Close()
	srv.Close()
	checkLeaks()
}

// TestStalledHalfFramesMissTheFrameDeadline sends eight frame headers,
// each claiming a 1 MiB body, follows each with a few bytes of body and
// stalls. While they stall, the server holds at most one 64 KiB frame
// chunk for each (wire.ReadFrame grows with the bytes received) and a
// well-behaved client's Exact replies stay bit-exact; each stalled
// connection closes within the frame deadline (lowered to 300 ms) and
// is counted, while an idle connection that never started a frame, and
// the client's own between its calls, stay open past it.
func TestStalledHalfFramesMissTheFrameDeadline(t *testing.T) {
	const stalls, deadline = 8, 300 * time.Millisecond
	// Beside the 64 KiB chunk, each stalled connection holds a 4 KiB
	// bufio.Reader and its connection records; the rest is room for the
	// runtime's own heap noise.
	const slack = stalls*8<<10 + 64<<10
	comps := buildAggComps(t, 1)
	checkLeaks := leakCheck(t)
	srv := NewServer(NewAggBackend(comps, BackendOptions{}), ServerOptions{})
	srv.frameTimeout = deadline
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	addr := l.Addr().String()
	a, err := NewAggregator([]string{addr}, waitAll)
	if err != nil {
		t.Fatal(err)
	}
	q := agg.Query{Op: agg.Sum, Lo: 0, Hi: math.Inf(1)}
	exact := agg.ExactResult(comps[0], q)
	exactCall(t, a, q, exact)
	idle := dialRaw(t, addr)
	for deadline := time.Now().Add(5 * time.Second); openConns(srv.srvCore) < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	half := binary.LittleEndian.AppendUint32(nil, 1<<20)
	half = append(half, make([]byte, 1000)...)
	var peers []net.Conn
	for range stalls {
		c := dialRaw(t, addr)
		if _, err := c.Write(half); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, c)
	}
	sent := time.Now()
	for deadline := sent.Add(5 * time.Second); openConns(srv.srvCore) < 2+stalls && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	exactCall(t, a, q, exact) // during the attack
	if grown := int64(heap()) - int64(before); grown > stalls*64<<10+slack {
		t.Fatalf("%d stalled half-frames grew the heap by %d bytes, want at most %d × 64 KiB + %d", stalls, grown, stalls, slack)
	} else {
		t.Logf("%d stalled half-frames grew the heap by %d bytes", stalls, grown)
	}
	for _, c := range peers {
		c.SetReadDeadline(sent.Add(deadline + 2*time.Second))
		if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("a stalled half-frame's connection: read %v, want EOF within the deadline", err)
		}
	}
	if took := time.Since(sent); took < deadline {
		t.Fatalf("stalled connections closed after %v, before the %v deadline", took, deadline)
	}
	if st := srv.Stats(); st.ReadTimeouts != stalls {
		t.Fatalf("%d reads missed their deadline, want %d (stats %+v)", st.ReadTimeouts, stalls, st)
	}
	time.Sleep(deadline) // twice the deadline since the attack began
	if n := openConns(srv.srvCore); n != 2 {
		t.Fatalf("%d connections open after the stalled ones closed, want the idle one and the client's", n)
	}
	exactCall(t, a, q, exact) // after the attack, on the client's same connection
	for _, c := range peers {
		c.Close()
	}
	idle.Close()
	a.Close()
	srv.Close()
	checkLeaks()
}
