package netsvc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"accuracytrader/internal/wire"
)

// ClientOptions configures a Client. It has no settings: a client dials
// within dialTimeout and accepts frames up to wire.MaxFrame.
type ClientOptions struct{}

// Client talks to a FrontServer: it sends whole-service requests and
// receives composed replies over one multiplexed connection (the same
// peerConn the aggregator pools) with transparent re-dial after
// failures. Safe for concurrent use.
type Client struct {
	addr   string
	nextID atomic.Uint64

	mu     sync.Mutex
	conn   *peerConn
	closed bool
}

// DialClient connects to a FrontServer.
func DialClient(addr string, _ ClientOptions) (*Client, error) {
	cl := &Client{addr: addr}
	if _, err := cl.live(); err != nil {
		return nil, err
	}
	return cl, nil
}

// live returns the connection, re-dialing a dead one.
func (cl *Client) live() (*peerConn, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, ErrClosed
	}
	if pc := cl.conn; pc != nil && !pc.isDead() {
		return pc, nil
	}
	c, err := net.DialTimeout("tcp", cl.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	cl.conn = newPeerConn(c, func() {}) // nobody to tell: the next call re-dials
	return cl.conn, nil
}

// roundTrip registers a call's waiter on the live connection, writes its
// record and waits on ch, the waiter's channel, for the answer. A call
// whose context gives up first takes its waiter back off the connection,
// so it leaves no entry behind (a late reply finds no one and is
// dropped).
func roundTrip[T any](ctx context.Context, cl *Client, id uint64, rec interface{}, waiter pending, ch chan answer[T]) (T, error) {
	var none T
	pc, err := cl.live()
	if err != nil {
		return none, err
	}
	if !pc.register(id, waiter) {
		return none, errors.New("netsvc: connection lost")
	}
	if err := pc.write(rec); err != nil {
		return none, fmt.Errorf("netsvc: send failed: %w", err)
	}
	select {
	case got := <-ch:
		return got.rep, got.err
	case <-ctx.Done():
		pc.take(id)
		return none, ctx.Err()
	}
}

// Call sends one whole-service request and waits for its composed
// reply. The request's ID is stamped by the client and its Deadline
// from the context; Subset is forced to -1 (whole service). A request
// that cannot be encoded (wire.Request.CheckPayload) is an error before
// anything is sent.
func (cl *Client) Call(ctx context.Context, req *wire.Request) (*wire.Reply, error) {
	if err := req.CheckPayload(); err != nil {
		return nil, err
	}
	sub := *req
	sub.ID = cl.nextID.Add(1)
	sub.Subset = -1
	// The context only tightens a service deadline the request already
	// carries, so a caller can hold a strict service budget while
	// allowing transport slack for the reply to travel back.
	if dl, ok := ctx.Deadline(); ok {
		if sub.Deadline == 0 || dl.UnixNano() < sub.Deadline {
			sub.Deadline = dl.UnixNano()
		}
	}
	ch := make(chan answer[*wire.Reply], 1)
	return roundTrip(ctx, cl, sub.ID, &sub, pending{reply: ch}, ch)
}

// Ingest sends one append batch and waits for its acknowledgement.
// The batch's ID is stamped by the client; Subset is passed through
// (use -1 to let the service pick the shard). A reply with status
// wire.IngestOK carries the number of items staged and the epoch the
// batch was staged at — the appended rows are visible to every query
// answered at a strictly greater epoch.
func (cl *Client) Ingest(ctx context.Context, req *wire.IngestRequest) (*wire.IngestReply, error) {
	sub := *req
	sub.ID = cl.nextID.Add(1)
	ch := make(chan answer[*wire.IngestReply], 1)
	return roundTrip(ctx, cl, sub.ID, &sub, pending{ack: ch}, ch)
}

// Close tears the connection down; in-flight Calls fail.
func (cl *Client) Close() {
	cl.mu.Lock()
	cl.closed = true
	pc := cl.conn
	cl.mu.Unlock()
	if pc != nil {
		pc.fail(ErrClosed)
	}
}
