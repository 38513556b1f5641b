package netsvc

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// keepingBackend is a frontend.Backend decorator that keeps every gather
// it returns, keyed by request ID, as a tracing decorator may: a front
// server under it must not release what it composed.
type keepingBackend struct {
	*Aggregator
	mu   sync.Mutex
	kept map[uint64][]service.SubResult
}

func (b *keepingBackend) Call(ctx context.Context, payload interface{}) ([]service.SubResult, error) {
	subs, err := b.Aggregator.Call(ctx, payload)
	if err == nil {
		b.mu.Lock()
		b.kept[payload.(*wire.Request).ID] = subs
		b.mu.Unlock()
	}
	return subs, err
}

func (b *keepingBackend) take(id uint64) []service.SubResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.kept[id]
}

// inProcess gathers one request template's sub-replies by calling h for
// every subset in process, as a Cluster would.
func inProcess(h Handler, tmpl *wire.Request, n int) []service.SubResult {
	subs := make([]service.SubResult, n)
	for i := range subs {
		sub := *tmpl
		sub.Subset = int32(i)
		subs[i] = service.SubResult{Subset: i, Value: h(context.Background(), &sub)}
	}
	return subs
}

// sameFloats compares float arrays by bit pattern.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameAgg(a, b *wire.AggResult) bool {
	return a != nil && b != nil && sameFloats(a.Sum, b.Sum) && sameFloats(a.Cnt, b.Cnt) &&
		sameFloats(a.SumVar, b.SumVar) && sameFloats(a.CntVar, b.CntVar)
}

// TestRecycledSubRepliesUnderHedging is the served net for recycled
// sub-reply records: components release each reply once its frame is
// written, the aggregator decodes into pooled records, and a front
// server over its own aggregator releases what it composed. Hedged agg
// runs over 8 shards with one stalled server — hedge losers arrive after
// their subset was composed and released — beside concurrent Exact CF
// and search requests, so records cycle between kinds. Every Exact reply
// must be bit-identical to composing the same requests in process. Agg
// replies come through two front servers over the one aggregator: a
// bare one, whose replies must equal the in-process compose (Algorithm
// 1 runs to completion well inside the budget, so sub-results do not
// depend on timing), and one under a decorator that keeps every gather,
// whose replies must equal a compose of the kept sub-results done by
// hand afterwards.
func TestRecycledSubRepliesUnderHedging(t *testing.T) {
	const (
		shards  = 8
		stalled = 3
		rounds  = 12
	)
	// Aggregation: Hedged, server 3 stalls every sub-operation.
	aggComps := buildAggComps(t, shards)
	aggH := NewAggBackend(aggComps, BackendOptions{})
	aggLB := startLoopback(t, LoopbackSpec{
		Components: shards,
		Handler: func(i int) Handler {
			return NewAggBackend(aggComps, BackendOptions{Interfere: func(uint64) time.Duration {
				if i == stalled {
					return 15 * time.Millisecond
				}
				return 0
			}})
		},
		Agg:   AggregatorOptions{Policy: service.Hedged, Deadline: 5 * time.Second, HedgeFloor: 2 * time.Millisecond},
		Front: &FrontSpec{},
	})
	keep := &keepingBackend{Aggregator: aggLB.Agg, kept: map[uint64][]service.SubResult{}}
	fe, err := frontend.New(keep, frontend.Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	decorated, err := NewFront(aggLB.Agg, fe, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(decorated.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go decorated.Serve(l)
	keptCl, err := DialClient(l.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(keptCl.Close)

	// CF and search, Exact through bare fronts.
	cfComps, cfReqs := cfFixture(t, shards, 6)
	cfH := NewCFBackend(cfComps, BackendOptions{})
	cfCl := startLoopback(t, LoopbackSpec{Components: shards, Handler: every(cfH), Agg: waitAll, Front: &FrontSpec{}}).Client
	searchComps, searchReqs := searchFixture(t, shards, 6)
	searchH := NewSearchBackend(searchComps, BackendOptions{})
	searchCl := startLoopback(t, LoopbackSpec{Components: shards, Handler: every(searchH), Agg: waitAll, Front: &FrontSpec{}}).Client

	// Each agg request filters its own value range, so no two replies
	// agree by accident.
	aggAt := func(g, i int) *wire.Request {
		req := aggReq(agg.Sum, float64(g*rounds+i)/16, math.Inf(1))
		req.SLO, req.Level = wire.SLOBestEffort, 1
		return req
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	run := func(body func(g, i int)) {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds && ctx.Err() == nil; i++ {
					body(g, i)
				}
			}(g)
		}
	}
	call := func(cl *Client, req *wire.Request) *wire.Reply {
		rep, err := cl.Call(ctx, req)
		if err != nil || rep.Status != wire.ReplyOK || len(rep.SubStatus) != shards {
			t.Errorf("%s request: reply %+v, err %v", req.Kind, rep, err)
			return nil
		}
		return rep
	}
	run(func(g, i int) { // bare agg front: the in-process compose
		req := aggAt(g, i)
		if rep := call(aggLB.Client, req); rep != nil {
			if want := ComposeAgg(inProcess(aggH, req, shards)); !sameAgg(rep.Agg, want) {
				t.Errorf("agg [%v, ∞): served %+v, in process %+v", req.Agg.Lo, rep.Agg, want)
			}
		}
	})
	run(func(g, i int) { // decorated agg front: a compose of the kept gather
		req := aggAt(g+2, i)
		if rep := call(keptCl, req); rep != nil {
			if want := ComposeAgg(keep.take(rep.ID)); !sameAgg(rep.Agg, want) {
				t.Errorf("agg [%v, ∞) under a decorator: served %+v, composed by hand %+v", req.Agg.Lo, rep.Agg, want)
			}
		}
	})
	run(func(g, i int) {
		req := cfReqs[(g+i)%len(cfReqs)]
		if rep := call(cfCl, req); rep != nil {
			want := ComposeCF(inProcess(cfH, req, shards))
			if rep.CF == nil || !sameFloats(rep.CF.Num, want.Num) || !sameFloats(rep.CF.Den, want.Den) {
				t.Errorf("Exact CF: served %+v, in process %+v", rep.CF, want)
			}
		}
	})
	run(func(g, i int) {
		req := searchReqs[(g+i)%len(searchReqs)]
		if rep := call(searchCl, req); rep != nil {
			want := ComposeSearch(inProcess(searchH, req, shards), wire.DefaultK)
			if rep.Search == nil || len(rep.Search.Hits) != len(want.Hits) {
				t.Errorf("Exact search %q: served %+v, in process %+v", req.Search.Query, rep.Search, want)
				return
			}
			for k, h := range rep.Search.Hits {
				if w := want.Hits[k]; h.Doc != w.Doc || math.Float64bits(h.Score) != math.Float64bits(w.Score) {
					t.Errorf("Exact search %q hit %d: served %+v, in process %+v", req.Search.Query, k, h, w)
				}
			}
		}
	})
	wg.Wait()
	if st := aggLB.Agg.Stats(); st.Hedges == 0 {
		t.Errorf("no sub-operation was hedged past the stalled server: %+v", st)
	}
}

// TestServedSearchMatchesComposedSubReplies: Exact and BestEffort search
// served through a loopback deployment must reply, bit for bit, what
// ComposeSearch makes of the handler's own sub-replies in process, and
// those must be hits a live engine ranked: real documents, finite
// scores, best first. BestEffort runs Algorithm 1 on every shard, to
// completion well inside the propagated deadline, so its answer does not
// depend on timing; a sub-operation that reads its engine after
// releasing it reads poisoned hits under the race detector.
func TestServedSearchMatchesComposedSubReplies(t *testing.T) {
	const shards = 8
	comps, reqs := searchFixture(t, shards, 8)
	h := NewSearchBackend(comps, BackendOptions{})
	cl := startLoopback(t, LoopbackSpec{Components: shards, Handler: every(h), Agg: waitAll, Front: &FrontSpec{}}).Client
	for _, slo := range []uint8{wire.SLOExact, wire.SLOBestEffort} {
		for _, tmpl := range reqs {
			req := *tmpl
			req.SLO = slo
			rep, err := cl.Call(context.Background(), &req)
			if err != nil || rep.Status != wire.ReplyOK || rep.Search == nil || len(rep.SubStatus) != shards {
				t.Fatalf("SLO %d search %q: reply %+v, err %v", slo, req.Search.Query, rep, err)
			}
			want := ComposeSearch(inProcess(h, &req, shards), wire.DefaultK).Hits
			if len(want) == 0 {
				t.Fatalf("SLO %d search %q: the in-process compose has no hits", slo, req.Search.Query)
			}
			for k, w := range want {
				if w.Doc < 0 || math.IsNaN(w.Score) || math.IsInf(w.Score, 0) || k > 0 && w.Score > want[k-1].Score {
					t.Fatalf("SLO %d search %q: in-process hits %+v are not a ranking", slo, req.Search.Query, want)
				}
			}
			got := rep.Search.Hits
			if len(got) != len(want) {
				t.Fatalf("SLO %d search %q: served %+v, in process %+v", slo, req.Search.Query, got, want)
			}
			for k, g := range got {
				if w := want[k]; g.Doc != w.Doc || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Errorf("SLO %d search %q hit %d: served %+v, in process %+v", slo, req.Search.Query, k, g, w)
				}
			}
		}
	}
}
