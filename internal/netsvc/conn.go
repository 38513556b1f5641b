package netsvc

import (
	"bufio"
	"net"
	"sync"

	"accuracytrader/internal/wire"
)

// retainBuf bounds the frame buffer a connection keeps between frames,
// in either direction. Steady-state frames are far smaller and reuse the
// buffer; one legal 8 MiB frame (wire.MaxFrame) must not pin 8 MiB to
// the connection for the rest of its life, so a buffer a frame grew past
// the bound is dropped as soon as that frame is handled.
const retainBuf = 64 << 10

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
type connWriter struct {
	c   net.Conn
	mu  sync.Mutex
	buf []byte // under mu; capacity stays within retainBuf between frames
}

// write sends one record — a *wire.Request, *wire.SubReply, *wire.Reply,
// *wire.IngestRequest or *wire.IngestReply — as one frame. A failed
// write closes the connection, which is how the connection's reader
// (and through it every waiter) learns of it.
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
	_, err := w.c.Write(buf)
	if cap(buf) > retainBuf {
		buf = nil
	}
	w.buf = buf
	w.mu.Unlock()
	if err != nil {
		w.c.Close()
	}
	return err
}

// frameReader reads one connection's frames into a buffer it reuses, the
// read-side twin of connWriter's.
type frameReader struct {
	br       *bufio.Reader
	buf      []byte
	maxFrame int
}

func newFrameReader(c net.Conn, maxFrame int) *frameReader {
	return &frameReader{br: bufio.NewReader(c), maxFrame: maxFrame}
}

// next returns the next frame body. It is valid until the following
// call — by which time the previous frame has been handled: decoded
// records never alias it — and an oversized previous buffer is dropped
// before the connection blocks waiting for more.
func (fr *frameReader) next() ([]byte, error) {
	if cap(fr.buf) > retainBuf {
		fr.buf = nil
	}
	var err error
	fr.buf, err = wire.ReadFrame(fr.br, fr.buf, fr.maxFrame)
	return fr.buf, err
}
