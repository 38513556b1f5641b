package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"accuracytrader/internal/cf"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
	wl "accuracytrader/internal/workload"
)

const (
	cfRequests = 256 // distinct active users in the pool, drawn uniformly
)

// cfExact: CF requests at Exact class: every shard fully scanned.
func cfExact() *workload {
	return &workload{
		name: "cf-exact",
		why: "the cf engine's full scans hold most of the request, so kernel work shows here and a " +
			"netsvc/wire change should not move rtt_p50_us: the bypass workload for network-tier changes",
		opsPerSecond: 180,
		setup:        setupCF,
	}
}

func setupCF(seed uint64, tr *tracer, _ bool) (*instance, error) {
	in := &instance{}
	t0 := time.Now()
	rcfg := wl.DefaultRatingsConfig()
	rcfg.Seed = seed
	data := wl.GenerateRatings(rcfg, components)
	sampled := data.SampleCFRequests(seed^0xcf, cfRequests, 0.2)
	in.timing.gen = time.Since(t0)
	if len(sampled) == 0 {
		return nil, fmt.Errorf("cf-exact: no requests sampled")
	}

	t0 = time.Now()
	comps := make([]*cf.Component, components)
	for i, m := range data.Subsets {
		c, err := cf.BuildComponent(m, synopsisConfig(seed))
		if err != nil {
			return nil, err
		}
		comps[i] = c
	}
	in.timing.synopsis = time.Since(t0)

	handler := netsvc.NewCFBackend(comps, netsvc.BackendOptions{})
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

	reqs := make([]*wire.Request, len(sampled))
	for i, s := range sampled {
		ratings := make([]wire.Rating, len(s.Known))
		for j, kr := range s.Known {
			ratings[j] = wire.Rating{Item: kr.Item, Score: kr.Score}
		}
		reqs[i] = &wire.Request{
			Kind: wire.KindCF, Subset: -1, SLO: wire.SLOExact, Level: wire.NoLevel,
			CF: &wire.CFRequest{Ratings: ratings, Targets: s.Targets},
		}
	}
	in.request = func(o op) *wire.Request { return reqs[o.query] }
	in.ops = func(n int) []op {
		return opSequence(seed, n, len(reqs), 0, opMix{exactOnly: true})
	}

	// Exact replies must be bit-identical to the same sub-operations
	// composed by direct function calls.
	expected := make([]*wire.CFResult, len(reqs))
	in.prepare = func() error {
		for i, req := range reqs {
			subs := make([]service.SubResult, components)
			for s := range subs {
				sub := *req
				sub.Subset = int32(s)
				subs[s] = service.SubResult{Subset: s, Value: handler(context.Background(), &sub)}
			}
			expected[i] = netsvc.ComposeCF(subs)
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
		want := expected[o.query]
		switch {
		case rep.Status != wire.ReplyOK:
			out.violation = "reply status: " + rep.Err
		case rep.CF == nil || !slices.Equal(rep.CF.Num, want.Num) || !slices.Equal(rep.CF.Den, want.Den):
			out.violation = "exact reply not bit-identical to in-process composition"
		default:
			out.ok, out.answered, out.accuracy = true, true, 1
		}
	}
	in.layerCounts = func(map[string]float64, counts) {}
	in.probes = func(tr *tracer, m map[string]float64) {
		c := comps[0]
		n := min(len(sampled), 16) // an exact scan is ~0.7 ms: keep the probe short
		creqs := make([]cf.Request, n)
		for i := range creqs {
			creqs[i] = cf.NewRequest(sampled[i].Known, sampled[i].Targets)
		}
		m["cf.synopsis_us"] = timeEach(n, func(i int) {
			e := cf.GetEngine(c, creqs[i])
			e.ProcessSynopsis()
			e.Release()
		}) / 1e3
		var res cf.Result
		m["cf.exact_us"] = timeEach(n, func(i int) {
			res = cf.ExactResultInto(res, c, creqs[i])
		}) / 1e3
	}
	return in, nil
}
