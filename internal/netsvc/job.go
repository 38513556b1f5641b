package netsvc

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"accuracytrader/internal/cost"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

// job is one request a server's worker answers and, while it is served,
// that request's context. A connection's reader decodes each request
// frame straight into its job: on a front server into a one-shot object
// (wire.DecodeRequestWith), so the request, its payload and the job are
// the one allocation serving it costs; on a component server into a
// pooled record (compJob), recycled once the request is answered, so a
// warm sub-request costs none. It carries the propagated deadline itself
// instead of deriving a context per job, so a handler that never waits
// on the context — every component handler — never pays for a channel or
// a timer; Done makes both on first call.
//
// The job is also where the request's planes ride: its trace and its
// cost account are fields Value answers (obs.TraceKey, cost.AccountKey),
// so a traced or metered request adds no context layer and no account
// object, and an untraced one carries them zeroed. On a component server
// the job also holds the handler's pooled sub-reply until its frame is
// written. The job stays at 120 bytes — a job, an agg request and its
// payload fill the 256-byte size class exactly — which is why the times
// are Unix nanoseconds and the end reason is a byte (TestRecordSizes).
//
// No path of a component server derives a child context from a job: a
// stdlib child (WithTimeout, WithCancel) asks its parent for Done, which
// would arm the timer the record exists to avoid. The component skeleton
// folds its l_spe cap into the record instead (BackendOptions.budget).
//
// On a front server, whoever keeps the request keeps the job: the result
// cache holds a client request as its refresh payload, the auditor as its
// sample payload. So every path that ends a job drops its connection
// (finish), and a kept request never pins a closed connection's writer
// and buffer.
type job struct {
	req  *wire.Request // decoded into the same object as the job
	conn *connWriter   // the accepted connection's writer, until the job ends: workers reply concurrently
	enq  int64         // when the request entered the worker queue, Unix nanoseconds; 0 for an internal pass
	// dl is the job's deadline in Unix nanoseconds, 0 for none: the
	// propagated one (plus a front server's gather grace), set at dequeue
	// and tightened by the component skeleton. Only the goroutine serving
	// the job writes it, before it hands the context to anyone who could
	// ask for Done; the same holds for tr and metered.
	dl int64

	// tr is a front pass's decision trace, nil when untraced.
	tr *obs.Trace
	// reply is a component job's pooled sub-reply — the handler's
	// (newSubReply), or a shed or expired job's status (statusReply) —
	// released by endJob once its frame is written.
	reply *wire.SubReply
	// acct is the request's cost account, handed out by Value while
	// metered: on a front pass, the bill the fan-out folds sub-operation
	// costs into; on a traced component request, the units the handler
	// scanned, shipped back on its exec span.
	acct    cost.Account
	metered bool

	ended jobEnd // why the job ended; guarded by mu
	mu    sync.Mutex
	done  atomic.Value // chan struct{}, made by the first Done
	timer *time.Timer  // armed by the first Done, stopped when the job ends
}

// jobEnd is why a job ended: not yet, its deadline, or its answer.
type jobEnd uint8

const (
	jobLive jobEnd = iota
	jobExpired
	jobCanceled
)

// err is the context error of a job ended this way.
func (e jobEnd) err() error {
	switch e {
	case jobExpired:
		return context.DeadlineExceeded
	case jobCanceled:
		return context.Canceled
	}
	return nil
}

// compJob is a component server's pooled sub-request record: the job
// that serves a sub-request and the wire record its frame decodes into —
// the request, its payload, the CF lists' backings and the inline
// tenant and query bytes. Nothing reads a sub-request once its reply
// frame is written (a Handler's request is valid only until it returns),
// so the server recycles the record then, or when the request is shed at
// the queue bound or expires at dequeue (srvCore.endJob), as it does the
// handler's pooled sub-reply.
//
// The job comes first: a pooled job's address is its record's
// (compJobOf), as a pooled sub-reply's is (wire.subRecord).
type compJob struct {
	job
	rec wire.RequestRecord
}

// compJobs is the one sub-request record pool, shared by every component
// server in the process. Like the sub-reply pool, the garbage collector
// empties it, so the records it holds never count as live heap.
var compJobs = sync.Pool{New: func() any { return new(compJob) }}

// decodeCompJob decodes a sub-request frame into a pooled record and
// returns its job.
func decodeCompJob(body []byte) (*job, error) {
	cj := compJobs.Get().(*compJob)
	req, err := cj.rec.Decode(body)
	if err != nil {
		recycle(&cj.job)
		return nil, err
	}
	cj.req = req
	return &cj.job, nil
}

// decodeJob decodes a request frame into a one-shot object: the request,
// its payload and the job that serves it, which whoever keeps the
// request may keep too.
func decodeJob(body []byte) (*job, error) {
	req, j, err := wire.DecodeRequestWith[job](body)
	if err != nil {
		return nil, err
	}
	j.req = req
	return j, nil
}

// compJobOf returns the record a pooled job lives in. j must have come
// from decodeCompJob.
func compJobOf(j *job) *compJob { return (*compJob)(unsafe.Pointer(j)) }

// recycle hands an ended component job back with its request record.
// The record is released either way (poisoned under the race detector),
// but a job whose Done was armed never goes back to the pool: finish
// stopped its timer, yet a callback already running may still end the
// job, and it must not end the next request's.
func recycle(j *job) {
	cj := compJobOf(j)
	cj.rec.Release()
	if j.done.Load() != nil {
		return
	}
	cj.job = job{}
	compJobs.Put(cj)
}

// internalJob is the record an internal pass — a cache refresh or an
// audit replay — runs under: its request and deadline, no connection
// and no queue wait. finish ends it like a served job.
func internalJob(req *wire.Request, dl time.Time) *job {
	return &job{req: req, dl: unixNanos(dl)}
}

// unixNanos is t in Unix nanoseconds, 0 for the zero time.
func unixNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// Deadline returns the job's deadline.
func (j *job) Deadline() (time.Time, bool) {
	if j.dl == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, j.dl), true
}

// Done returns a channel closed at the deadline, or when the job ends
// first; nil for a job without a deadline, which, like
// context.Background, is never canceled. The first call makes the
// channel and arms the timer.
func (j *job) Done() <-chan struct{} {
	if j.dl == 0 {
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
	if j.ended == jobLive {
		if wait := time.Until(time.Unix(0, j.dl)); wait > 0 {
			j.timer = time.AfterFunc(wait, j.expire)
			return d
		}
		j.ended = jobExpired
	}
	close(d)
	return d
}

// Err agrees with Done: nil until the deadline passes or the job ends,
// then DeadlineExceeded or Canceled. It reads the clock, so a job whose
// Done nobody asked for still reports its deadline on time.
func (j *job) Err() error {
	if j.dl == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ended == jobLive && time.Now().UnixNano() >= j.dl {
		j.endLocked(jobExpired)
	}
	return j.ended.err()
}

// Value answers the request's planes: its trace (obs.TraceFrom) when it
// has one, its cost account (cost.AccountFrom) while metered. A job has
// no parent, so every other key finds nothing.
func (j *job) Value(key any) any {
	switch key.(type) {
	case obs.TraceKey:
		if j.tr != nil {
			return j.tr
		}
	case cost.AccountKey:
		if j.metered {
			return &j.acct
		}
	}
	return nil
}

func (j *job) expire() { j.end(jobExpired) }

// finish ends a job once its reply is written (or it was shed), as the
// deferred cancel of a stdlib context would: Done, if anyone asked for
// it, closes with Canceled, and the timer is stopped, so an answered job
// leaves nothing armed. It drops the connection the job no longer
// writes to (see job).
func (j *job) finish() {
	j.conn = nil
	j.end(jobCanceled)
}

func (j *job) end(why jobEnd) {
	if j.dl == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.endLocked(why)
}

func (j *job) endLocked(why jobEnd) {
	if j.ended != jobLive {
		return
	}
	j.ended = why
	if d, ok := j.done.Load().(chan struct{}); ok {
		close(d)
	}
	if j.timer != nil {
		j.timer.Stop()
	}
}
