package netsvc

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/wire"
)

// job is one request a server's worker answers and, while it is served,
// that request's context. A connection's reader decodes each request
// frame straight into its job (wire.DecodeRequestWith), so the request,
// its payload and the job are the one object serving it costs. It
// carries the propagated deadline itself instead of deriving a context
// per job, so a handler that never waits on the context — every
// component handler — never pays for a channel or a timer; Done makes
// both on first call.
//
// No path of a component server derives a child context from a job: a
// stdlib child (WithTimeout, WithCancel) asks its parent for Done, which
// would arm the timer the record exists to avoid. The component skeleton
// folds its l_spe cap into the record instead (BackendOptions.budget).
//
// Whoever keeps the request keeps the job: the result cache holds a
// client request as its refresh payload, the auditor as its sample
// payload. So every path that ends a job drops its connection (finish),
// and a kept request never pins a closed connection's writer and buffer.
type job struct {
	req  *wire.Request // decoded into the same object as the job
	conn *connWriter   // the accepted connection's writer, until the job ends: workers reply concurrently
	enq  time.Time     // when the request entered the worker queue

	// dl is the job's deadline, zero for none: the propagated one (plus a
	// front server's gather grace), set at dequeue and tightened by the
	// component skeleton. Only the goroutine serving the job writes it,
	// before it hands the context to anyone who could ask for Done.
	dl time.Time
	// scan tallies the data units the handler touched; Value hands it out
	// on traced requests only.
	scan scanCounter

	mu    sync.Mutex
	done  atomic.Value // chan struct{}, made by the first Done
	err   error
	timer *time.Timer // armed by the first Done, stopped when the job ends
}

// scanCounter tallies the rows/postings a backend computation touched
// (the handler skeleton, newBackend, credits it).
type scanCounter struct {
	n atomic.Uint64
}

type scanCounterKey struct{}

// scanCounterFrom returns the request's scan counter: nil unless the
// request is traced.
func scanCounterFrom(ctx context.Context) *scanCounter {
	c, _ := ctx.Value(scanCounterKey{}).(*scanCounter)
	return c
}

// Deadline returns the job's deadline.
func (j *job) Deadline() (time.Time, bool) { return j.dl, !j.dl.IsZero() }

// Done returns a channel closed at the deadline, or when the job ends
// first; nil for a job without a deadline, which, like
// context.Background, is never canceled. The first call makes the
// channel and arms the timer.
func (j *job) Done() <-chan struct{} {
	if j.dl.IsZero() {
		return nil
	}
	if d, ok := j.done.Load().(chan struct{}); ok {
		return d
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if d, ok := j.done.Load().(chan struct{}); ok {
		return d
	}
	d := make(chan struct{})
	j.done.Store(d)
	if j.err == nil {
		if wait := time.Until(j.dl); wait > 0 {
			j.timer = time.AfterFunc(wait, j.expire)
			return d
		}
		j.err = context.DeadlineExceeded
	}
	close(d)
	return d
}

// Err agrees with Done: nil until the deadline passes or the job ends,
// then DeadlineExceeded or Canceled. It reads the clock, so a job whose
// Done nobody asked for still reports its deadline on time.
func (j *job) Err() error {
	if j.dl.IsZero() {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil && !time.Now().Before(j.dl) {
		j.endLocked(context.DeadlineExceeded)
	}
	return j.err
}

// Value answers the scan counter on a traced request; a job has no
// parent, so every other key finds nothing.
func (j *job) Value(key any) any {
	if _, ok := key.(scanCounterKey); ok && j.req != nil && j.req.Trace != 0 {
		return &j.scan
	}
	return nil
}

func (j *job) expire() { j.end(context.DeadlineExceeded) }

// finish ends a job once its reply is written (or it was shed), as the
// deferred cancel of a stdlib context would: Done, if anyone asked for
// it, closes with Canceled, and the timer is stopped, so an answered job
// leaves nothing armed. It drops the connection the job no longer
// writes to (see job).
func (j *job) finish() {
	j.conn = nil
	j.end(context.Canceled)
}

func (j *job) end(err error) {
	if j.dl.IsZero() {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.endLocked(err)
}

func (j *job) endLocked(err error) {
	if j.err != nil {
		return
	}
	j.err = err
	if d, ok := j.done.Load().(chan struct{}); ok {
		close(d)
	}
	if j.timer != nil {
		j.timer.Stop()
	}
}
