package main

import (
	"context"
	"slices"
	"time"

	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
	"accuracytrader/internal/textindex"
	"accuracytrader/internal/wire"
	wl "accuracytrader/internal/workload"
)

const (
	searchQueries = 512 // distinct queries in the pool, drawn uniformly: nothing here caches
	searchK       = 10
)

// searchFanout: web-search requests through a bare front server (no
// frontend, no cache, every plane off) to 8 search shards. Requests are
// Exact class: at this corpus size the exact top-k costs about 2 us a
// shard, while the BestEffort path (synopsis plus at least one ranked
// set, about 17 us a shard) would make the engine 45% of the round
// trip and hide the network tier this workload exists to expose.
func searchFanout() *workload {
	return &workload{
		name: "search-fanout",
		why: "18 frames, 8 sub-op dispatches and a top-k merge around microseconds of engine work: " +
			"wire, connection I/O and netsvc gather are almost all of the request",
		opsPerSecond: 8000,
		setup:        setupSearch,
	}
}

func setupSearch(seed uint64, tr *tracer, _ bool) (*instance, error) {
	in := &instance{}
	t0 := time.Now()
	ccfg := wl.DefaultCorpusConfig()
	ccfg.Seed = seed
	data := wl.GenerateCorpus(ccfg, components)
	queries := data.SampleQueries(seed^0x5ea, searchQueries)
	in.timing.gen = time.Since(t0)

	t0 = time.Now()
	comps := make([]*textindex.Component, components)
	for i, ix := range data.Subsets {
		c, err := textindex.BuildComponent(ix, synopsisConfig(seed))
		if err != nil {
			return nil, err
		}
		comps[i] = c
	}
	in.timing.synopsis = time.Since(t0)

	handler := netsvc.NewSearchBackend(comps, netsvc.BackendOptions{})
	t0 = time.Now()
	r, err := startRig(rigSpec{
		handler: func(int) netsvc.Handler { return handler },
		aggOpts: netsvc.AggregatorOptions{Policy: service.WaitAll, Deadline: 2 * time.Second},
		front: func(r *rig) (*netsvc.FrontServer, error) {
			return netsvc.NewFrontServer(r.agg, nil, netsvc.ServerOptions{Workers: 4}), nil
		},
	}, tr)
	if err != nil {
		return nil, err
	}
	in.rig = r
	in.timing.ready = time.Since(t0)

	reqs := make([]*wire.Request, len(queries))
	for i, q := range queries {
		reqs[i] = &wire.Request{
			Kind: wire.KindSearch, Subset: -1, SLO: wire.SLOExact, Level: wire.NoLevel,
			Search: &wire.SearchRequest{Query: q, K: searchK},
		}
	}
	in.request = func(o op) *wire.Request { return reqs[o.query] }
	in.ops = func(n int) []op {
		return opSequence(seed, n, searchQueries, 0, opMix{exactOnly: true})
	}

	// Every reply is compared with the in-process composition of the
	// same sub-operations (the replies of one query repeat, so the
	// composition is computed once per distinct query).
	expected := make([][]wire.Hit, len(queries))
	in.prepare = func() error {
		for i, req := range reqs {
			subs := make([]service.SubResult, components)
			for s := range subs {
				sub := *req
				sub.Subset = int32(s)
				subs[s] = service.SubResult{Subset: s, Value: handler(context.Background(), &sub)}
			}
			expected[i] = netsvc.ComposeSearch(subs, searchK).Hits
		}
		return nil
	}
	in.exec = func(ctx context.Context, _ int, o op, _ time.Time, out *opResult) {
		out.read, out.level = true, -1
		rep, err := r.client.Call(ctx, reqs[o.query])
		if err != nil {
			out.violation = "call: " + err.Error()
			return
		}
		out.id = rep.ID
		switch {
		case rep.Status != wire.ReplyOK:
			out.violation = "reply status: " + rep.Err
		case rep.Search == nil || !slices.Equal(rep.Search.Hits, expected[o.query]):
			out.violation = "hits differ from in-process composition"
		default:
			out.ok, out.answered, out.accuracy = true, true, 1
		}
	}
	in.layerCounts = func(map[string]float64, counts) {}
	in.probes = func(tr *tracer, m map[string]float64) {
		// One shard, the request pool's own queries.
		c := comps[0]
		parsed := make([]textindex.Query, 64)
		for i := range parsed {
			parsed[i] = c.Ix.ParseQuery(queries[i])
		}
		m["textindex.synopsis_us"] = timeEach(len(parsed), func(i int) {
			e := textindex.GetEngine(c, parsed[i])
			e.ProcessSynopsis()
			sinkHits = e.TopK(searchK)
			e.Release()
		}) / 1e3
		m["textindex.exact_us"] = timeEach(len(parsed), func(i int) {
			sinkHits = textindex.ExactTopK(c, parsed[i], searchK)
		}) / 1e3
	}
	return in, nil
}

// sinkHits keeps probe results alive.
var sinkHits []textindex.Hit
