package netsvc

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cf"
	"accuracytrader/internal/core"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/svd"
	"accuracytrader/internal/synopsis"
	"accuracytrader/internal/wire"
)

// naiveCFEngine is the reference a CF sub-reply is held to: Algorithm 1
// composed from cf.Weight (the two-vector definition) and a binary
// search per (neighbour x target) — no per-item table, so nothing a
// hostile item id could index.
type naiveCFEngine struct {
	c       *cf.Component
	req     cf.Request
	res     cf.Result
	weights []float64
}

func (e *naiveCFEngine) add(w float64, rs []cf.Rating, mean, sign float64) {
	if w == 0 {
		return
	}
	for t, item := range e.req.Targets {
		if i, ok := slices.BinarySearchFunc(rs, item, func(r cf.Rating, item int32) int {
			return int(r.Item) - int(item)
		}); ok {
			e.res.Num[t] += sign * w * (rs[i].Score - mean)
			e.res.Den[t] += sign * math.Abs(w)
		}
	}
}

func (e *naiveCFEngine) ProcessSynopsis() []float64 {
	corr := make([]float64, len(e.c.Aggs))
	e.weights = make([]float64, len(e.c.Aggs))
	for g, ag := range e.c.Aggs {
		w := cf.Weight(e.req.Ratings, ag.Ratings)
		e.weights[g], corr[g] = w, math.Abs(w)
		e.add(w, ag.Ratings, ag.Mean, +1)
	}
	return corr
}

func (e *naiveCFEngine) ProcessSet(g int) {
	ag := e.c.Aggs[g]
	e.add(e.weights[g], ag.Ratings, ag.Mean, -1)
	for _, u := range ag.Members {
		rs := e.c.M.Ratings(u)
		e.add(cf.Weight(e.req.Ratings, rs), rs, e.c.M.Mean(u), +1)
	}
}

// naiveCFReply answers req as the backend must: the full scan for an
// Exact request, an unbounded Algorithm 1 run otherwise.
func naiveCFReply(c *cf.Component, req *wire.Request) cf.Result {
	ratings := make([]cf.Rating, len(req.CF.Ratings))
	for i, r := range req.CF.Ratings {
		ratings[i] = cf.Rating{Item: r.Item, Score: r.Score}
	}
	e := &naiveCFEngine{c: c, req: cf.NewRequest(ratings, req.CF.Targets), res: cf.NewResult(len(req.CF.Targets))}
	if req.SLO != wire.SLOExact {
		core.Run(e, func(int) bool { return true }, 0)
		return e.res
	}
	for u := 0; u < c.M.NumUsers(); u++ {
		rs := c.M.Ratings(u)
		e.add(cf.Weight(e.req.Ratings, rs), rs, c.M.Mean(u), +1)
	}
	return e.res
}

// TestCFBackendHostileRequests sends CF requests no honest client
// builds — active items negative, beyond the item space, duplicated or
// unsorted; targets out of range or repeated; no ratings, one rating —
// at SLOExact and BestEffort. The kernel indexes a per-item table by
// active item and target, so each must stay bounded and typed: no
// panic, StatusOK, and the reply the table-free reference computes.
func TestCFBackendHostileRequests(t *testing.T) {
	const nItems = 30
	rng := stats.NewRNG(0xbad)
	m := cf.NewMatrix(nItems)
	for u := 0; u < 90; u++ {
		rs := make([]cf.Rating, 5+rng.Intn(12))
		perm := rng.Perm(nItems)
		for i := range rs {
			rs[i] = cf.Rating{Item: int32(perm[i]), Score: 1 + float64(rng.Intn(9))/2}
		}
		if u%4 == 0 { // SetUser keeps duplicate items
			rs = append(rs, cf.Rating{Item: rs[0].Item, Score: 3.5})
		}
		m.AddUser(rs)
	}
	c, err := cf.BuildComponent(m, synopsis.Config{SVD: svd.Config{Dims: 3, Epochs: 10, Seed: 11}, CompressionRatio: 10})
	if err != nil {
		t.Fatal(err)
	}
	h := NewCFBackend([]*cf.Component{c}, BackendOptions{})

	honest := m.Ratings(1)
	wireRatings := func(rs ...cf.Rating) []wire.Rating {
		out := make([]wire.Rating, len(rs))
		for i, r := range rs {
			out[i] = wire.Rating{Item: r.Item, Score: r.Score}
		}
		return out
	}
	reversed := slices.Clone(honest)
	slices.Reverse(reversed)
	cases := []struct {
		name string
		cf   wire.CFRequest
	}{
		{"negative and beyond-range active items", wire.CFRequest{
			Ratings: append(wireRatings(honest...), wire.Rating{Item: -1, Score: 5}, wire.Rating{Item: nItems, Score: 1},
				wire.Rating{Item: math.MinInt32, Score: 2}, wire.Rating{Item: math.MaxInt32, Score: 4}),
			Targets: []int32{2, 11, 17}}},
		{"duplicate active items", wire.CFRequest{
			Ratings: append(wireRatings(honest...), wireRatings(honest[0], honest[0], honest[2])...),
			Targets: []int32{2, 11, 17}}},
		{"unsorted active items", wire.CFRequest{Ratings: wireRatings(reversed...), Targets: []int32{2, 11, 17}}},
		{"out-of-range and duplicate targets", wire.CFRequest{
			Ratings: wireRatings(honest...),
			Targets: []int32{5, -1, nItems, 5, math.MaxInt32, math.MinInt32, 9, 5}}},
		{"empty ratings", wire.CFRequest{Targets: []int32{2, 11}}},
		{"one rating", wire.CFRequest{Ratings: wireRatings(honest[0]), Targets: []int32{2, 11}}},
		{"no targets", wire.CFRequest{Ratings: wireRatings(honest...)}},
	}
	for _, tc := range cases {
		for _, slo := range []uint8{wire.SLOExact, wire.SLOBestEffort} {
			req := &wire.Request{Kind: wire.KindCF, Subset: 0, SLO: slo, Level: wire.NoLevel, CF: &tc.cf}
			want := naiveCFReply(c, req)
			rep := h(context.Background(), req)
			if rep.Status != wire.StatusOK || rep.CF == nil {
				t.Fatalf("%s, SLO %d: status %d (%q), CF payload %v", tc.name, slo, rep.Status, rep.Err, rep.CF != nil)
			}
			if !slices.Equal(rep.CF.Num, want.Num) || !slices.Equal(rep.CF.Den, want.Den) {
				t.Errorf("%s, SLO %d: reply (%v,%v), reference (%v,%v)", tc.name, slo, rep.CF.Num, rep.CF.Den, want.Num, want.Den)
			}
		}
	}
}

// TestAggSubOperationAllocations: one Bounded agg sub-operation through
// the skeleton — budget, Algorithm 1's ranking and budget check, the
// engine's improvement — allocates only its reply, a record from the
// sub-reply pool and the float backing its arrays are carved from, when
// the caller keeps it; and nothing once the caller releases each reply,
// as a component server does after writing it. That holds on the plain
// path and on the metered one, where a cost account on the context
// installs the metered engine. The metered
// engine credits the rows the engine reads: every row once when every
// stratum is improved, since each improvement resumes where its sample
// stopped, and the sample plus the rest of each stratum run when imax
// caps the run.
func TestAggSubOperationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops at random)")
	}
	const replyAllocs = 2 // the pooled record, its float backing
	comps := buildAggComps(t, 1)
	h := NewAggBackend(comps, BackendOptions{SubBudget: time.Hour})
	req := aggReq(agg.Sum, 0, math.Inf(1))
	req.Subset, req.SLO = 0, wire.SLOBounded
	acct := new(cost.Account)
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"plain", context.Background()},
		{"metered", context.WithValue(context.Background(), cost.AccountKey{}, acct)},
	} {
		var rep *wire.SubReply
		// AllocsPerRun's warm-up invocation primes the engine, ranking
		// and sub-operation pools.
		n := testing.AllocsPerRun(100, func() { rep = h(tc.ctx, req) })
		if rep.Status != wire.StatusOK || int(rep.SetsProcessed) != comps[0].Syn.NumStrata() {
			t.Fatalf("%s: reply %+v, want OK over all %d strata", tc.name, rep, comps[0].Syn.NumStrata())
		}
		if n != replyAllocs {
			t.Errorf("%s Bounded agg sub-operation allocates %.1f times, want %d (its reply)", tc.name, n, replyAllocs)
		}
		if n := testing.AllocsPerRun(100, func() { wire.ReleaseSubReply(h(tc.ctx, req)) }); n != 0 {
			t.Errorf("%s Bounded agg sub-operation with its reply released allocates %.1f times, want 0", tc.name, n)
		}
	}
	if acct.Usage().Scanned == 0 {
		t.Fatal("the metered path credited no scanned units")
	}

	c := comps[0]
	level := c.Syn.Levels() - 1 // a request without a level is served at the finest
	credited := func(h Handler) int {
		acct := new(cost.Account)
		h(context.WithValue(context.Background(), cost.AccountKey{}, acct), req)
		return int(acct.Usage().Scanned)
	}
	if got, want := credited(h), c.T.NumRows(); got != want {
		t.Errorf("fully improved sub-operation credits %d units, want every row once: %d", got, want)
	}
	const frac = 0.25
	capped := NewAggBackend(comps, BackendOptions{SubBudget: time.Hour, IMaxFrac: frac})
	want := c.Syn.SampleUnits(level)
	e := agg.NewEngine(c, aggQuery(req), level)
	for _, g := range core.Rank(e.ProcessSynopsis())[:BackendOptions{IMaxFrac: frac}.imax(c.Syn.NumStrata(), 1)] {
		want += c.Syn.StratumSize(g) - c.Syn.SampleLen(level, g)
	}
	if got := credited(capped); got != want {
		t.Errorf("sub-operation capped at %.2f of the strata credits %d units, want the sample plus the rest of each set run: %d",
			frac, got, want)
	}
}
