package main

import (
	"bufio"
	"net"
	"testing"

	"accuracytrader/internal/wire"
)

// pipeListener hands out one prepared connection, then blocks.
type pipeListener struct {
	conns chan net.Conn
}

func (l *pipeListener) Accept() (net.Conn, error) {
	c, ok := <-l.conns
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}
func (l *pipeListener) Close() error   { close(l.conns); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe"} }

func TestCountingConnCountsAndCapturesWholeFrames(t *testing.T) {
	client, server := net.Pipe()
	inner := &pipeListener{conns: make(chan net.Conn, 1)}
	inner.conns <- server
	var counts connCounts
	l := &countingListener{Listener: inner, counts: &counts}
	accepted, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer accepted.Close()
	defer client.Close()

	reqs := []*wire.Request{
		{ID: 1, Kind: wire.KindSearch, Subset: -1, SLO: wire.SLOExact, Level: wire.NoLevel,
			Search: &wire.SearchRequest{Query: "alpha beta", K: 10}},
		{ID: 2, Kind: wire.KindAgg, Subset: 3, SLO: wire.SLOBestEffort, Level: 2,
			Agg: &wire.AggRequest{Op: 1, Lo: 0.5, Hi: 9}},
	}
	reply := &wire.SubReply{ID: 2, Subset: 3, Kind: wire.KindAgg, Level: 2,
		Agg: &wire.AggResult{Sum: []float64{1, 2}, Cnt: []float64{3, 4}, SumVar: []float64{0, 0}, CntVar: []float64{0, 0}}}

	// The peer writes both requests in one call and reads the reply.
	var sent int
	done := make(chan error, 1)
	go func() {
		var buf []byte
		for _, r := range reqs {
			buf = wire.AppendRequestFrame(buf, r)
		}
		sent = len(buf)
		if _, err := client.Write(buf); err != nil {
			done <- err
			return
		}
		_, err := wire.ReadFrame(bufio.NewReader(client), nil, 0)
		done <- err
	}()

	br := bufio.NewReader(accepted)
	for range reqs {
		if _, err := wire.ReadFrame(br, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	frame := wire.AppendSubReplyFrame(nil, reply)
	if _, err := accepted.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got := counts.writes.Load(); got != 1 {
		t.Errorf("writes = %d, want 1", got)
	}
	if got := counts.writeBytes.Load(); got != int64(len(frame)) {
		t.Errorf("write bytes = %d, want %d", got, len(frame))
	}
	if got := counts.readBytes.Load(); got != int64(sent) {
		t.Errorf("read bytes = %d, want %d", got, sent)
	}
	if got := counts.reads.Load(); got < 1 {
		t.Errorf("reads = %d, want at least 1", got)
	}

	read, written := counts.frames()
	if len(read) != 2 || len(written) != 1 {
		t.Fatalf("captured %d read and %d written frames, want 2 and 1", len(read), len(written))
	}
	for i, body := range read {
		got, err := wire.DecodeRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != reqs[i].ID || got.Kind != reqs[i].Kind {
			t.Errorf("captured request %d decoded as id %d kind %v", i, got.ID, got.Kind)
		}
	}
	if got, err := wire.DecodeSubReply(written[0]); err != nil || got.Agg.Sum[1] != 2 {
		t.Errorf("captured sub-reply decoded as %+v, %v", got, err)
	}
	if n := estFrames(int64(10*sent), read, wire.FrameRequest); n != 20 {
		t.Errorf("estFrames = %g, want 20 (ten times the captured two)", n)
	}
}

func TestCaptureKeepsAFrameAlignedPrefix(t *testing.T) {
	frame := wire.AppendRequestFrame(nil, &wire.Request{ID: 9, Kind: wire.KindAgg, Subset: 1,
		Agg: &wire.AggRequest{Op: 0, Lo: 1, Hi: 2}})
	var stream []byte
	for i := 0; i < 3; i++ {
		stream = append(stream, frame...)
	}
	// A truncated tail is dropped, whole frames are kept.
	if got := len(splitFrames(stream[:len(stream)-5])); got != 2 {
		t.Fatalf("split %d frames from two and a half, want 2", got)
	}
	c := &countingConn{counts: &connCounts{}}
	big := make([]byte, captureLimit+100)
	c.keep(&c.wr, big)
	c.keep(&c.wr, big)
	if len(c.wr) != captureLimit {
		t.Fatalf("kept %d bytes, limit %d", len(c.wr), captureLimit)
	}
}
