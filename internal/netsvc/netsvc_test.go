package netsvc

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cf"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/service"
	"accuracytrader/internal/svd"
	"accuracytrader/internal/synopsis"
	"accuracytrader/internal/textindex"
	"accuracytrader/internal/wire"
	"accuracytrader/internal/workload"
)

// startServer runs a component server on an ephemeral loopback port,
// for the tests whose shape is not the rig's (no aggregator, or one
// whose peer list is not the server list).
func startServer(t testing.TB, h Handler, opts ServerOptions) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(h, opts)
	go s.Serve(l)
	t.Cleanup(s.Close)
	return s, l.Addr().String()
}

// startLoopback runs the spec's deployment for the length of the test.
func startLoopback(t testing.TB, spec LoopbackSpec) *Loopback {
	t.Helper()
	lb, err := StartLoopback(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	return lb
}

// every deploys the same handler on every component server.
func every(h Handler) func(int) Handler { return func(int) Handler { return h } }

// waitAll is the aggregator most tests want: gather everything, with a
// deadline far beyond any healthy round trip.
var waitAll = AggregatorOptions{Policy: service.WaitAll, Deadline: 2 * time.Second}

// calibratedFront is a front server whose frontend has a controller
// calibrated for buildAggComps' two-level ladder and the given admission
// policies (nil: admit everything), with sopts' planes.
func calibratedFront(t testing.TB, admission []frontend.AdmissionPolicy, sopts ServerOptions) *FrontSpec {
	t.Helper()
	ctrl, err := frontend.NewController(frontend.ControllerConfig{
		Levels:        2,
		LevelAccuracy: []float64{0.8, 0.97},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &FrontSpec{Frontend: &frontend.Options{Admission: admission, Controller: ctrl}, Server: sopts}
}

// aggReq builds a whole-service aggregation request template.
func aggReq(op agg.Op, lo, hi float64) *wire.Request {
	return &wire.Request{
		Kind: wire.KindAgg, Subset: -1, SLO: wire.SLONone,
		Level: wire.NoLevel,
		Agg:   &wire.AggRequest{Op: uint8(op), Lo: lo, Hi: hi},
	}
}

// buildAggComps generates n fact-table shards and their ladders.
func buildAggComps(t testing.TB, n int) []*agg.Component {
	t.Helper()
	cfg := workload.DefaultFactsConfig()
	cfg.RowsPerSubset = 600
	cfg.Keys = 12
	cfg.Seed = 11
	data := workload.GenerateFacts(cfg, n)
	var comps []*agg.Component
	for _, tab := range data.Subsets {
		c, err := agg.BuildComponent(tab, agg.Config{Rates: []float64{0.1, 0.4}, MinSample: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
	}
	return comps
}

// searchFixture builds n search shards over a small seeded corpus and
// returns them with count Exact whole-service requests over its sampled
// queries.
func searchFixture(t testing.TB, n, count int) ([]*textindex.Component, []*wire.Request) {
	t.Helper()
	ccfg := workload.DefaultCorpusConfig()
	ccfg.DocsPerSubset = 120
	ccfg.Seed = 21
	data := workload.GenerateCorpus(ccfg, n)
	comps := make([]*textindex.Component, n)
	for i, ix := range data.Subsets {
		c, err := textindex.BuildComponent(ix, synopsis.Config{
			SVD: svd.Config{Dims: 3, Epochs: 10, Seed: 5}, CompressionRatio: 8, FoldInEpochs: 10})
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = c
	}
	var reqs []*wire.Request
	for _, q := range data.SampleQueries(3, count) {
		reqs = append(reqs, &wire.Request{Kind: wire.KindSearch, Subset: -1, SLO: wire.SLOExact, Level: wire.NoLevel,
			Search: &wire.SearchRequest{Query: q, K: wire.DefaultK}})
	}
	return comps, reqs
}

// cfFixture builds n CF shards over small seeded ratings and returns them
// with count Exact whole-service requests over its sampled users.
func cfFixture(t testing.TB, n, count int) ([]*cf.Component, []*wire.Request) {
	t.Helper()
	rcfg := workload.DefaultRatingsConfig()
	rcfg.UsersPerSubset = 60
	rcfg.Seed = 23
	data := workload.GenerateRatings(rcfg, n)
	comps := make([]*cf.Component, n)
	for i, m := range data.Subsets {
		c, err := cf.BuildComponent(m, synopsis.Config{SVD: svd.Config{Dims: 3, Epochs: 10, Seed: 5}, CompressionRatio: 8})
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = c
	}
	var reqs []*wire.Request
	for _, s := range data.SampleCFRequests(7, count, 0.2) {
		ratings := make([]wire.Rating, len(s.Known))
		for j, kr := range s.Known {
			ratings[j] = wire.Rating{Item: kr.Item, Score: kr.Score}
		}
		reqs = append(reqs, &wire.Request{Kind: wire.KindCF, Subset: -1, SLO: wire.SLOExact, Level: wire.NoLevel,
			CF: &wire.CFRequest{Ratings: ratings, Targets: s.Targets}})
	}
	return comps, reqs
}

// TestCallRejectsRequestWithoutPayload: a request whose kind has no
// payload cannot be encoded. Client.Call and Aggregator.Call answer it
// with an error before anything is registered or written, and the same
// client and aggregator then serve a valid request as usual.
func TestCallRejectsRequestWithoutPayload(t *testing.T) {
	lb := startLoopback(t, LoopbackSpec{Components: 2, Handler: every(NewAggBackend(buildAggComps(t, 2), BackendOptions{})),
		Agg: waitAll, Front: &FrontSpec{}})
	for _, bad := range []*wire.Request{{Kind: wire.KindSearch}, {Kind: wire.KindCF, Agg: &wire.AggRequest{}}, {Kind: 9}} {
		if rep, err := lb.Client.Call(context.Background(), bad); err == nil {
			t.Fatalf("Client.Call of kind %d without its payload: reply %+v, no error", bad.Kind, rep)
		}
		if subs, err := lb.Agg.Call(context.Background(), bad); err == nil {
			t.Fatalf("Aggregator.Call of kind %d without its payload: %+v, no error", bad.Kind, subs)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := lb.Client.Call(ctx, aggReq(agg.Sum, 0, math.Inf(1)))
	if err != nil || rep.Status != wire.ReplyOK {
		t.Fatalf("valid call after the rejected ones: reply %+v, err %v", rep, err)
	}
	subs, err := lb.Agg.Call(ctx, aggReq(agg.Sum, 0, math.Inf(1)))
	if err != nil || subs[0].Value == nil || subs[1].Value == nil {
		t.Fatalf("valid fan-out after the rejected ones: %+v, err %v", subs, err)
	}
}

// TestDeadlinePropagation is the budget-propagation contract, both
// halves:
//
//  1. a request whose propagated absolute deadline has already passed
//     is answered Skipped without the handler ever running, and
//  2. a handler already mid-request abandons Algorithm 1 improvement
//     once the remaining budget is exhausted.
func TestDeadlinePropagation(t *testing.T) {
	comps := buildAggComps(t, 1)
	var handlerRuns atomic.Int64
	inner := NewAggBackend(comps, BackendOptions{UnitCost: 40 * time.Microsecond})
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		handlerRuns.Add(1)
		return inner(ctx, req)
	}
	lb := startLoopback(t, LoopbackSpec{Components: 1, Handler: every(h),
		Agg: AggregatorOptions{Policy: service.WaitAll, Deadline: time.Second}})
	srv, agg1 := lb.Servers[0], lb.Agg

	// (1) Expired on arrival: the server answers Skipped and never
	// invokes the handler.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-10*time.Millisecond))
	defer cancel()
	subs, err := agg1.Call(ctx, aggReq(agg.Sum, 0, math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !subs[0].Skipped {
		t.Fatalf("expired request must come back skipped: %+v", subs[0])
	}
	deadlineWait := time.Now().Add(time.Second)
	for srv.Stats().Abandoned == 0 && time.Now().Before(deadlineWait) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().Abandoned; got != 1 {
		t.Fatalf("server abandoned = %d, want 1", got)
	}
	if handlerRuns.Load() != 0 {
		t.Fatalf("handler ran %d times for an expired request", handlerRuns.Load())
	}

	// (2) Budget exhausted mid-request: with the modeled cost, the full
	// improvement pass costs ~600 rows × 40µs = 24ms. A 3ms budget must
	// stop Algorithm 1 after at most a few strata, while a generous
	// budget improves every stratum.
	tight, cancel2 := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel2()
	subsTight, err := agg1.Call(tight, aggReq(agg.Sum, 0, math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	loose, cancel3 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel3()
	subsLoose, err := agg1.Call(loose, aggReq(agg.Sum, 0, math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	repLoose := subsLoose[0].Value.(*wire.SubReply)
	total := comps[0].Syn.NumStrata()
	if int(repLoose.SetsProcessed) != total {
		t.Fatalf("generous budget processed %d of %d strata", repLoose.SetsProcessed, total)
	}
	var setsTight uint32
	if rep, ok := subsTight[0].Value.(*wire.SubReply); ok {
		setsTight = rep.SetsProcessed
	} // else the whole sub-op was skipped: zero sets — also abandonment.
	if int(setsTight) >= total {
		t.Fatalf("3ms budget still processed all %d strata", total)
	}
}

// TestAggregatorReconnect kills the component server's listener-side
// connections and asserts calls recover by themselves: the peer is
// redialed at once, or, when the bounce tripped its breaker, by the
// probe one cooldown later.
func TestAggregatorReconnect(t *testing.T) {
	comps := buildAggComps(t, 1)
	h := NewAggBackend(comps, BackendOptions{})
	lb := startLoopback(t, LoopbackSpec{Components: 1, Handler: every(h),
		Agg: AggregatorOptions{Policy: service.WaitAll, Deadline: time.Second}})
	srv, addr, a := lb.Servers[0], lb.Addrs[0], lb.Agg
	if _, err := a.Call(context.Background(), aggReq(agg.Count, 0, math.Inf(1))); err != nil {
		t.Fatal(err)
	}

	// Bounce the server: old connections die, a new listener takes the
	// same address.
	srv.Close()
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(h, ServerOptions{})
	go srv2.Serve(l2)
	t.Cleanup(srv2.Close)

	var subs []service.SubResult
	ok := false
	for deadline := time.Now().Add(5 * time.Second); !ok && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		subs, err = a.Call(context.Background(), aggReq(agg.Count, 0, math.Inf(1)))
		if err != nil {
			t.Fatal(err)
		}
		ok = subs[0].Err == nil && !subs[0].Skipped
	}
	if !ok {
		t.Fatalf("call after server bounce never recovered: %+v", subs[0])
	}
	if a.Stats().Reconnects == 0 {
		t.Fatal("reconnect counter must move")
	}
}

// countingListener counts the connections its listener accepted.
type countingListener struct {
	net.Listener
	accepted *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestOneConnectionPerComponent: concurrent Hedged calls over healthy
// components are multiplexed on one connection per component.
func TestOneConnectionPerComponent(t *testing.T) {
	const n, callers, calls = 4, 8, 200
	var accepted atomic.Int64
	lb := startLoopback(t, LoopbackSpec{Components: n, Handler: every(oneAggReply),
		WrapListener: func(_ int, l net.Listener) net.Listener { return countingListener{l, &accepted} },
		Agg:          AggregatorOptions{Policy: service.Hedged, Deadline: 2 * time.Second}})
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				subs, err := lb.Agg.Call(context.Background(), aggReq(agg.Sum, 0, 1))
				if err == nil {
					for _, sr := range subs {
						if sr.Err != nil {
							err = sr.Err
						}
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := accepted.Load(); got != n {
		t.Fatalf("%d components accepted %d connections, want %d", n, got, n)
	}
}

// TestServerShedsAtQueueBound fills the single worker with a stalled
// job plus a full queue and asserts the overflow is answered
// StatusBusy instead of buffering invisibly.
func TestServerShedsAtQueueBound(t *testing.T) {
	release := make(chan struct{})
	h := func(ctx context.Context, req *wire.Request) *wire.SubReply {
		<-release
		return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
			Agg: &wire.AggResult{Sum: []float64{0}, Cnt: []float64{0}, SumVar: []float64{0}, CntVar: []float64{0}}}
	}
	lb := startLoopback(t, LoopbackSpec{Components: 1, Handler: every(h),
		Server: ServerOptions{Workers: 1, QueueLen: 1}, Agg: waitAll})
	defer close(release)
	srv, a := lb.Servers[0], lb.Agg

	var busy atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			subs, err := a.Call(ctx, aggReq(agg.Sum, 0, 1))
			if err != nil {
				return
			}
			if subs[0].Err != nil && !errors.Is(subs[0].Err, context.DeadlineExceeded) {
				busy.Add(1)
			}
		}()
	}
	wg.Wait()
	if busy.Load() == 0 {
		t.Fatalf("no request was shed busy (server stats: %+v)", srv.Stats())
	}
	if srv.Stats().Shed == 0 {
		t.Fatal("server shed counter must move")
	}
}

// TestEndToEndComposedReply runs client → front server (with frontend)
// → component servers over loopback sockets and asserts the composed
// aggregation answer is bit-identical to the same composition done in
// process, that SLO classes round-trip (Exact bypasses the synopsis),
// and that the frontend's level selection is reported back.
func TestEndToEndComposedReply(t *testing.T) {
	const n = 3
	comps := buildAggComps(t, n)
	cl := startLoopback(t, LoopbackSpec{Components: n, Handler: every(NewAggBackend(comps, BackendOptions{})),
		Agg: waitAll, Front: calibratedFront(t, nil, ServerOptions{})}).Client

	// Exact-class request: every component bypasses its synopsis, so
	// the composed answer equals the exact merged answer bit for bit.
	q := agg.Query{Op: agg.Sum, Lo: 0, Hi: math.Inf(1)}
	req := aggReq(q.Op, q.Lo, q.Hi)
	req.SLO = wire.SLOExact
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rep, err := cl.Call(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != wire.ReplyOK {
		t.Fatalf("reply status %d err %q", rep.Status, rep.Err)
	}
	if rep.SLO != wire.SLOExact {
		t.Fatalf("effective SLO %d, want Exact", rep.SLO)
	}
	exact := agg.NewResult(comps[0].T.NumKeys())
	for _, c := range comps {
		exact.Merge(agg.ExactResult(c, q))
	}
	got := AggResultOf(rep.Agg)
	for k := range exact.Sum {
		if got.Sum[k] != exact.Sum[k] || got.Cnt[k] != exact.Cnt[k] {
			t.Fatalf("key %d: network (%v,%v) != in-process (%v,%v)",
				k, got.Sum[k], got.Cnt[k], exact.Sum[k], exact.Cnt[k])
		}
	}
	for _, st := range rep.SubStatus {
		if st != wire.StatusOK {
			t.Fatalf("sub statuses %v", rep.SubStatus)
		}
	}

	// Best-effort request at idle load: the controller must select the
	// finest level and the composed reply must report it.
	req2 := aggReq(q.Op, q.Lo, q.Hi)
	req2.SLO = wire.SLOBestEffort
	rep2, err := cl.Call(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Status != wire.ReplyOK {
		t.Fatalf("reply2 status %d err %q", rep2.Status, rep2.Err)
	}
	if want := int16(comps[0].Syn.Levels() - 1); rep2.Level != want {
		t.Fatalf("reported level %d, want finest %d", rep2.Level, want)
	}
	if rep2.Agg == nil || len(rep2.Agg.Sum) != comps[0].T.NumKeys() {
		t.Fatalf("approximate composed reply malformed: %+v", rep2.Agg)
	}
}

// TestTemplateSLOSurvivesBareAggregator asserts a client-stamped SLO
// class reaches components through an aggregator with no frontend: an
// Exact-class request must take the exact-scan path, not the synopsis.
func TestTemplateSLOSurvivesBareAggregator(t *testing.T) {
	comps := buildAggComps(t, 1)
	a := startLoopback(t, LoopbackSpec{Components: 1, Handler: every(NewAggBackend(comps, BackendOptions{})), Agg: waitAll}).Agg
	q := agg.Query{Op: agg.Sum, Lo: 0, Hi: math.Inf(1)}
	req := aggReq(q.Op, q.Lo, q.Hi)
	req.SLO = wire.SLOExact
	subs, err := a.Call(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	rep := subs[0].Value.(*wire.SubReply)
	exact := agg.ExactResult(comps[0], q)
	got := AggResultOf(rep.Agg)
	for k := range exact.Sum {
		if got.Sum[k] != exact.Sum[k] || got.SumVar[k] != 0 {
			t.Fatalf("key %d: Exact-class answer not exact: got %v (var %v) want %v",
				k, got.Sum[k], got.SumVar[k], exact.Sum[k])
		}
	}
}

// TestBackendWrongWorkload asserts a mismatched payload is a clean
// error sub-reply, not a panic.
func TestBackendWrongWorkload(t *testing.T) {
	comps := buildAggComps(t, 1)
	h := NewAggBackend(comps, BackendOptions{})
	rep := h(context.Background(), &wire.Request{Kind: wire.KindSearch, Subset: 0,
		SLO: wire.SLONone, Level: wire.NoLevel, Search: &wire.SearchRequest{Query: "x", K: 3}})
	if rep.Status != wire.StatusErr {
		t.Fatalf("wrong-workload request must error, got %+v", rep)
	}
}

// TestFrontendBackendSeam pins the compile-time contract that both
// runtimes satisfy the frontend's Backend seam.
func TestFrontendBackendSeam(t *testing.T) {
	var _ frontend.Backend = (*Aggregator)(nil)
	var _ frontend.Backend = (*service.Cluster)(nil)
}

// TestOpenLoopFiresConcurrently pins the load generator's contract over
// fixed schedules: every arrival fires exactly once with intended ==
// start + its offset, a slow request never delays later sends (the
// generator is open-loop, not closed-loop), and a schedule already in
// the past is sent without sleeping, its lateness returned as the lag.
func TestOpenLoopFiresConcurrently(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule []float64     // ms after the call
		block    time.Duration // how long each fire holds its goroutine
		maxWall  time.Duration // the whole run must finish within this
		minLag   time.Duration // the returned lag must be at least this
	}{
		{"fixed schedule", []float64{0, 2.5, 2.5, 7, 19.25, 30}, 0, time.Second, 0},
		{"blocking fire does not delay later sends", []float64{0, 10, 20, 30, 40}, 50 * time.Millisecond, time.Second, 0},
		{"schedule in the past is sent at once", []float64{-300, -200, -100, -100}, 0, 100 * time.Millisecond, 300 * time.Millisecond},
		{"empty schedule", nil, 0, time.Second, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			intended := make([]time.Time, len(tc.schedule))
			fired := make([]atomic.Int64, len(tc.schedule))
			var sendLag atomic.Int64 // worst fire-time lateness, ns
			t0 := time.Now()
			lag := OpenLoop(tc.schedule, func(i int, at time.Time) {
				late := int64(time.Since(at))
				for m := sendLag.Load(); late > m && !sendLag.CompareAndSwap(m, late); m = sendLag.Load() {
				}
				intended[i] = at
				fired[i].Add(1)
				time.Sleep(tc.block)
			})
			wall := time.Since(t0)
			for i := range tc.schedule {
				if n := fired[i].Load(); n != 1 {
					t.Fatalf("arrival %d fired %d times, want once", i, n)
				}
				// Offsets between intended times are exact: the schedule, not
				// the wall clock, decides them.
				want := time.Duration(tc.schedule[i]*float64(time.Millisecond)) - time.Duration(tc.schedule[0]*float64(time.Millisecond))
				if got := intended[i].Sub(intended[0]); got != want {
					t.Fatalf("arrival %d intended %v after arrival 0, want exactly %v", i, got, want)
				}
			}
			if len(tc.schedule) > 0 {
				if first := intended[0].Sub(t0) - time.Duration(tc.schedule[0]*float64(time.Millisecond)); first < 0 || first > 20*time.Millisecond {
					t.Fatalf("schedule anchored %v after the call, want ~0", first)
				}
			}
			if wall > tc.maxWall {
				t.Fatalf("run took %v, want <= %v", wall, tc.maxWall)
			}
			if lag < tc.minLag {
				t.Fatalf("returned lag %v, want >= %v", lag, tc.minLag)
			}
			// Later sends were not held back by earlier (blocking) fires:
			// with 50 ms blocks on a 10 ms grid a closed loop would run
			// 80 ms late by the third arrival.
			if tc.block > 0 && time.Duration(sendLag.Load()) >= tc.block {
				t.Fatalf("a send ran %v late behind a %v blocking fire", time.Duration(sendLag.Load()), tc.block)
			}
		})
	}
}
