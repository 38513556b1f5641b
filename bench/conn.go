package main

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"

	"accuracytrader/internal/wire"
)

// captureLimit bounds the bytes kept per direction of one connection.
// Capture starts at the connection's first byte, so the kept prefix is
// frame-aligned and splits into whole frames with wire.ReadFrame.
const captureLimit = 256 << 10

// connCounts tallies the calls and bytes of every connection made
// through one seam (the aggregator's dialer, or one wrapped listener).
// It is shared by the netsvc.conn_* metrics and the wire.* probes.
type connCounts struct {
	reads, writes         atomic.Int64
	readBytes, writeBytes atomic.Int64

	mu    sync.Mutex
	conns []*countingConn
}

// wrap returns c instrumented with these counters.
func (cc *connCounts) wrap(c net.Conn) net.Conn {
	w := &countingConn{Conn: c, counts: cc}
	cc.mu.Lock()
	cc.conns = append(cc.conns, w)
	cc.mu.Unlock()
	return w
}

// frames splits the captured prefix of every connection into whole
// frame bodies: those the wrapped side read, and those it wrote.
func (cc *connCounts) frames() (read, written [][]byte) {
	cc.mu.Lock()
	conns := append([]*countingConn(nil), cc.conns...)
	cc.mu.Unlock()
	for _, c := range conns {
		c.mu.Lock()
		read = append(read, splitFrames(c.rd)...)
		written = append(written, splitFrames(c.wr)...)
		c.mu.Unlock()
	}
	return read, written
}

// splitFrames parses a frame-aligned byte stream into frame bodies,
// dropping a truncated tail.
func splitFrames(stream []byte) [][]byte {
	var out [][]byte
	r := bytes.NewReader(stream)
	for {
		body, err := wire.ReadFrame(r, nil, 0)
		if err != nil {
			return out
		}
		out = append(out, body)
	}
}

// countingConn counts Read and Write calls (each is one syscall on a
// TCP connection) and keeps the first captureLimit bytes each way.
type countingConn struct {
	net.Conn
	counts *connCounts

	mu     sync.Mutex
	rd, wr []byte
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.counts.reads.Add(1)
	c.counts.readBytes.Add(int64(n))
	c.keep(&c.rd, p[:n])
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.counts.writes.Add(1)
	c.counts.writeBytes.Add(int64(n))
	c.keep(&c.wr, p[:n])
	return n, err
}

func (c *countingConn) keep(dst *[]byte, p []byte) {
	c.mu.Lock()
	if room := captureLimit - len(*dst); room > 0 {
		if len(p) > room {
			p = p[:room]
		}
		*dst = append(*dst, p...)
	}
	c.mu.Unlock()
}

// countingListener wraps every accepted connection.
type countingListener struct {
	net.Listener
	counts *connCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.counts.wrap(c), nil
}
