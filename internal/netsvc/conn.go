package netsvc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/wire"
)

// retainBuf bounds the frame buffer a connection keeps between frames,
// in either direction. Steady-state frames are far smaller and reuse the
// buffer; one legal 8 MiB frame (wire.MaxFrame) must not pin 8 MiB to
// the connection for the rest of its life, so a buffer a frame grew past
// the bound is dropped as soon as that frame is handled.
const retainBuf = 64 << 10

// writeDeadline bounds how long a frame's write may block on a peer that
// does not read: past it the connection closes, instead of parking the
// worker that writes (and every frame queued behind it) for good.
const writeDeadline = 10 * time.Second

// frameDeadline bounds how long a started frame may take to arrive
// whole once its header is in. An idle connection between frames stays
// legal (an aggregator keeps one persistent connection per component),
// so the header itself is awaited with no deadline; a peer that sends a
// header and stalls loses its connection, and the frame buffer and
// reader goroutine it held.
const frameDeadline = 10 * time.Second

// timedOut reports whether err is a missed I/O deadline.
func timedOut(err error) bool { return errors.Is(err, os.ErrDeadlineExceeded) }

// connWriter is one connection's frame writer, shared by everything that
// replies or sends on it (server workers, an aggregator's fan-outs, a
// Client's callers): it encodes each record into a buffer it owns, under
// the same lock that keeps concurrent frames from interleaving, and
// hands the connection exactly one Write per frame.
//
// The buffer is reused the moment Write returns, so a net.Conn wrapper
// on this path must not retain the slice it is handed (the io.Writer
// contract); the fault-injection and benchmark-counting conns copy what
// they keep.
//
// Each write must finish within timeout (writeDeadline; zero for none).
// Setting a deadline costs more than reading the clock, so the
// connection's deadline is moved only when less than half of timeout
// is left of it: a frame pays one time.Now().
type connWriter struct {
	c       net.Conn
	timeout time.Duration
	expired *atomic.Int64 // counts writes that missed their deadline; nil counts none
	mu      sync.Mutex
	buf     []byte    // under mu; capacity stays within retainBuf between frames
	until   time.Time // under mu: the write deadline c holds
}

// write sends one record — a *wire.Request, *wire.SubReply, *wire.Reply,
// *wire.IngestRequest or *wire.IngestReply — as one frame. A failed
// write, a missed deadline included, closes the connection, which is
// how the connection's reader (and through it every waiter) learns of
// it.
func (w *connWriter) write(rec interface{}) error {
	w.mu.Lock()
	buf := w.buf[:0]
	switch r := rec.(type) {
	case *wire.Request:
		buf = wire.AppendRequestFrame(buf, r)
	case *wire.SubReply:
		buf = wire.AppendSubReplyFrame(buf, r)
	case *wire.Reply:
		buf = wire.AppendReplyFrame(buf, r)
	case *wire.IngestRequest:
		buf = wire.AppendIngestRequestFrame(buf, r)
	case *wire.IngestReply:
		buf = wire.AppendIngestReplyFrame(buf, r)
	default:
		w.mu.Unlock()
		// Not fmt'd with rec: that would make every caller's record escape.
		panic("netsvc: connWriter.write: not a wire record")
	}
	if w.timeout > 0 {
		if now := time.Now(); w.until.Sub(now) < w.timeout/2 {
			w.until = now.Add(w.timeout)
			_ = w.c.SetWriteDeadline(w.until) // fails on a closed conn, whose Write fails next
		}
	}
	_, err := w.c.Write(buf)
	if cap(buf) > retainBuf {
		buf = nil
	}
	w.buf = buf
	w.mu.Unlock()
	if err != nil {
		if w.expired != nil && timedOut(err) {
			w.expired.Add(1)
		}
		w.c.Close()
	}
	return err
}

// frameReader reads one connection's frames into a buffer it reuses, the
// read-side twin of connWriter's. A frame whose header has arrived must
// arrive whole within timeout (frameDeadline; zero for none).
type frameReader struct {
	c       net.Conn
	br      *bufio.Reader
	buf     []byte
	timeout time.Duration
}

func newFrameReader(c net.Conn, timeout time.Duration) *frameReader {
	return &frameReader{c: c, br: bufio.NewReader(c), timeout: timeout}
}

// next returns the next frame body. It is valid until the following
// call — by which time the previous frame has been handled: decoded
// records never alias it — and an oversized previous buffer is dropped
// before the connection blocks waiting for more. The header is awaited
// with no deadline. The body's deadline is armed only when the body is
// not already buffered, so a frame that arrived in one read sets no
// deadline, and it is cleared once the frame is whole.
func (fr *frameReader) next() ([]byte, error) {
	if cap(fr.buf) > retainBuf {
		fr.buf = nil
	}
	hdr, err := fr.br.Peek(4)
	if err != nil {
		return fr.buf, err
	}
	armed := fr.timeout > 0 && fr.br.Buffered()-4 < int(binary.LittleEndian.Uint32(hdr))
	// Either call fails only on a closed conn, whose next Read fails.
	if armed {
		_ = fr.c.SetReadDeadline(time.Now().Add(fr.timeout))
	}
	fr.buf, err = wire.ReadFrame(fr.br, fr.buf, wire.MaxFrame)
	if armed && err == nil {
		_ = fr.c.SetReadDeadline(time.Time{})
	}
	return fr.buf, err
}
