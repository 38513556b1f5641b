package netsvc

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"

	"accuracytrader/internal/cost"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/wire"
)

var _ context.Context = (*job)(nil)

// servedJob is a job as serveJob leaves it for the handler: a request
// with a propagated deadline, the deadline set.
func servedJob(dl time.Time, trace uint64) *job {
	j := &job{req: &wire.Request{Deadline: dl.UnixNano(), Trace: trace}, enq: time.Now().UnixNano()}
	j.dl = dl.UnixNano()
	j.metered = trace != 0
	return j
}

// TestJobDeadline: the record reports the propagated deadline, and the
// component skeleton's l_spe cap folds into it — min(propagated, now +
// SubBudget) — without deriving a child context.
func TestJobDeadline(t *testing.T) {
	far := time.Now().Add(time.Hour)
	j := servedJob(far, 0)
	if dl, ok := j.Deadline(); !ok || !dl.Equal(far) {
		t.Fatalf("Deadline = %v, %v; want the propagated %v", dl, ok, far)
	}
	before := time.Now()
	got := BackendOptions{SubBudget: 50 * time.Millisecond}.budget(j)
	if dl, ok := j.Deadline(); !ok || !dl.Equal(got) || dl.Before(before.Add(50*time.Millisecond)) || dl.After(time.Now().Add(50*time.Millisecond)) {
		t.Fatalf("Deadline after a 50ms SubBudget = %v, %v (budget %v); want now + 50ms", dl, ok, got)
	}
	near := time.Now().Add(time.Millisecond)
	j = servedJob(near, 0)
	if got := (BackendOptions{SubBudget: time.Hour}).budget(j); !got.Equal(near) {
		t.Fatalf("budget under a propagated deadline nearer than SubBudget = %v, want %v", got, near)
	}
	if dl, _ := j.Deadline(); !dl.Equal(near) {
		t.Fatalf("Deadline = %v, want the propagated %v to stand", dl, near)
	}
	var none job
	if _, ok := none.Deadline(); ok || none.Done() != nil || none.Err() != nil {
		t.Fatal("a job without a deadline must behave like context.Background")
	}
}

// TestJobDoneAtDeadline: Done closes once, at the deadline; Err is nil
// before it and DeadlineExceeded after, agreeing with Done.
func TestJobDoneAtDeadline(t *testing.T) {
	const wait = 30 * time.Millisecond
	start := time.Now()
	j := servedJob(start.Add(wait), 0)
	d := j.Done()
	if d != j.Done() {
		t.Fatal("Done returned two channels")
	}
	if err := j.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	select {
	case <-d:
		t.Fatal("Done closed before the deadline")
	default:
	}
	<-d
	if el := time.Since(start); el < wait {
		t.Fatalf("Done closed after %v, deadline %v", el, wait)
	}
	if err := j.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline = %v", err)
	}
	j.finish() // ending an expired job changes nothing
	if err := j.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after finish of an expired job = %v", err)
	}

	// Err reads the clock: a job nobody asked Done of still expires, and
	// Done then agrees.
	j = servedJob(time.Now().Add(time.Millisecond), 0)
	time.Sleep(2 * time.Millisecond)
	if err := j.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err past an unwatched deadline = %v", err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("Done open while Err reports the deadline")
	}

	// A job answered before its deadline ends like a canceled context.
	j = servedJob(time.Now().Add(time.Hour), 0)
	d = j.Done()
	j.finish()
	select {
	case <-d:
	default:
		t.Fatal("finish left Done open")
	}
	if err := j.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after finish = %v, want Canceled", err)
	}
}

// TestJobValue: the record answers its cost account while metered and
// its trace when it has one, each its own field, and finds nothing for
// any other key.
func TestJobValue(t *testing.T) {
	traced := servedJob(time.Now().Add(time.Hour), 7)
	if a := cost.AccountFrom(traced); a != &traced.acct {
		t.Fatalf("metered job's account = %p, want the record's own %p", a, &traced.acct)
	}
	plain := servedJob(time.Now().Add(time.Hour), 0)
	if cost.AccountFrom(plain) != nil || obs.TraceFrom(plain) != nil {
		t.Fatal("an unmetered, untraced job hands out an account or a trace")
	}
	tr := obs.NewRecorder(1, 1).Start(0, time.Now())
	plain.tr = tr
	if got := obs.TraceFrom(plain); got != tr {
		t.Fatalf("traced job's trace = %p, want its own %p", got, tr)
	}
	type other struct{}
	if v := traced.Value(other{}); v != nil {
		t.Fatalf("Value(other key) = %v, want nil", v)
	}
}

// TestJobChildren: stdlib children of a job — values, timeouts,
// after-funcs — see its values, deadline and cancellation.
func TestJobChildren(t *testing.T) {
	type key struct{}
	j := servedJob(time.Now().Add(20*time.Millisecond), 7)
	vctx := context.WithValue(j, key{}, "v")
	if vctx.Value(key{}) != "v" || cost.AccountFrom(vctx) != &j.acct {
		t.Fatal("WithValue child lost its own value or the job's account")
	}
	jdl, _ := j.Deadline()
	if dl, _ := vctx.Deadline(); !dl.Equal(jdl) {
		t.Fatalf("WithValue child deadline %v, want %v", dl, jdl)
	}

	tctx, cancel := context.WithTimeout(j, time.Hour)
	defer cancel()
	if dl, _ := tctx.Deadline(); !dl.Equal(jdl) {
		t.Fatalf("WithTimeout child deadline %v, want the job's earlier %v", dl, jdl)
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(j, func() { close(fired) })
	defer stop()
	select {
	case <-tctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("WithTimeout child not canceled at the job's deadline")
	}
	if !errors.Is(tctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("child Err = %v", tctx.Err())
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("AfterFunc did not run at the job's deadline")
	}

	// finish cancels what a served job's children wait on.
	j = servedJob(time.Now().Add(time.Hour), 0)
	cctx, ccancel := context.WithCancel(j)
	defer ccancel()
	j.finish()
	select {
	case <-cctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("child not canceled when the job finished")
	}
}

// TestJobDoneConcurrent: concurrent first calls to Done agree on one
// channel and arm one timer (clean under -race).
func TestJobDoneConcurrent(t *testing.T) {
	j := servedJob(time.Now().Add(10*time.Millisecond), 0)
	chans := make([]<-chan struct{}, 16)
	var wg sync.WaitGroup
	for i := range chans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			chans[i] = j.Done()
			<-chans[i]
			if !errors.Is(j.Err(), context.DeadlineExceeded) {
				t.Errorf("Err after Done = %v", j.Err())
			}
		}(i)
	}
	wg.Wait()
	for _, c := range chans[1:] {
		if c != chans[0] {
			t.Fatal("concurrent Done calls returned different channels")
		}
	}
}

// TestComponentJobContextAllocations: a component handler never asks for
// Done, so serving its job — the request frame decoded into a warm
// pooled record, the skeleton's budget fold, deadline and account reads,
// and the end of the job, recycling the record — costs no allocation: no
// decoded object, no channel, no timer.
func TestComponentJobContextAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	opts := BackendOptions{SubBudget: time.Second}
	frame := wire.AppendRequestFrame(nil, &wire.Request{Kind: wire.KindSearch, Subset: 2, Level: wire.NoLevel,
		Deadline: time.Now().Add(time.Hour).UnixNano(), Trace: 7,
		Search: &wire.SearchRequest{Query: "alpha beta gamma", K: wire.DefaultK}})
	n := testing.AllocsPerRun(100, func() {
		j, err := decodeCompJob(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		j.dl, j.metered = j.req.Deadline, j.req.Trace != 0
		s := getSubop(opts.budget(j))
		s.cont(0)
		s.release()
		cost.AccountFrom(j).Add(cost.Usage{Scanned: 1})
		j.finish()
		recycle(j)
	})
	if n != 0 {
		t.Fatalf("a component job, decoded and served, allocates %.0f times, want 0", n)
	}
}

// TestEndedJobDropsConnection: a request a plane keeps after its answer
// (the cache's refresh payload, the auditor's sample) shares its object
// with the job that served it, so the ended job must not keep the
// connection's writer — and with it the writer's buffer — alive.
func TestEndedJobDropsConnection(t *testing.T) {
	s := newSrvCore(ServerOptions{})
	defer s.Close()
	served := make(chan *job, 1)
	s.respond = func(j *job) interface{} {
		served <- j
		return &wire.SubReply{ID: j.req.ID, Kind: j.req.Kind, Status: wire.StatusSkipped, Level: wire.NoLevel}
	}
	near, far := net.Pipe()
	defer near.Close()
	s.readers.Add(1)
	go s.readConn(far)

	w := &connWriter{c: near}
	if err := w.write(&wire.Request{ID: 9, Kind: wire.KindSearch, Subset: -1,
		Search: &wire.SearchRequest{Query: "kept", K: wire.DefaultK}}); err != nil {
		t.Fatal(err)
	}
	body, err := newFrameReader(near, 0).next()
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := wire.DecodeSubReply(body); err != nil || rep.ID != 9 {
		t.Fatalf("reply %+v, err %v", rep, err)
	}
	j := <-served
	kept := j.req // as the cache keeps a client request
	for deadline := time.Now().Add(5 * time.Second); s.pending.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the served job never ended")
		}
		time.Sleep(time.Millisecond)
	}
	if j.conn != nil {
		t.Fatal("an ended job still references its connection's writer")
	}
	if kept.Search.Query != "kept" {
		t.Fatalf("kept request's query = %q", kept.Search.Query)
	}
}

// TestRecordSizes pins the served job: it holds the request's trace and
// cost account and the handler's pooled sub-reply, yet stays at 120
// bytes, so a front server's job decoded with an agg request and its
// payload still fills one 256-byte size class. Every whole-service
// request decodes one, and every component sub-operation serves in one
// (in a pooled record), so growing the job is a change to review, not a
// side effect.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(job{}); got != 120 {
		t.Errorf("job is %d bytes, want 120", got)
	}
	if got := unsafe.Sizeof(job{}) + unsafe.Sizeof(wire.Request{}) + unsafe.Sizeof(wire.AggRequest{}); got > 256 {
		t.Errorf("a job decoded with an agg request is %d bytes, want at most 256", got)
	}
}
