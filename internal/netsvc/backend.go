package netsvc

import (
	"context"
	"sync"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cf"
	"accuracytrader/internal/core"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/textindex"
	"accuracytrader/internal/wire"
)

// BackendOptions configures a workload backend handler.
type BackendOptions struct {
	// UnitCost is the modeled wall-clock cost per original data point
	// scanned (0 = pure compute). The real engines at laptop scale run
	// in microseconds; the modeled cost restores the cluster-scale
	// cost/accuracy trade so deadlines, degradation and hedging have
	// something real to act on — the live analog of the simulator's
	// UnitCostMs.
	UnitCost time.Duration
	// SubBudget is the component-side service deadline l_spe (paper §4:
	// 100ms): each sub-operation's Algorithm 1 budget is capped at
	// min(propagated request deadline, arrival + SubBudget), so a
	// component never spends more than SubBudget on one sub-operation
	// even when the gather policy is willing to wait much longer
	// (0 = bound by the propagated deadline alone).
	SubBudget time.Duration
	// Interfere returns this server's co-located interference delay for
	// a parent request (wire.Request.Seq; nil = none). It models the
	// machine the server runs on, not the subset: a hedged replica
	// dispatched to another server escapes it. The stall counts against
	// the sub-operation's budget, exactly like queueing delay.
	Interfere func(seq uint64) time.Duration
	// IMaxFrac caps Algorithm 1 improvement at the top fraction of
	// ranked sets (the paper's imax). 0 selects the workload default:
	// 0.4 for search (paper §4.3), every set eligible for CF and
	// aggregation. Keeping typical service time well under the budget
	// is what gives hedging its headroom.
	IMaxFrac float64
}

// imax converts the configured improvement fraction into a set cap.
func (o BackendOptions) imax(sets int, workloadDefault float64) int {
	frac := o.IMaxFrac
	if frac <= 0 {
		frac = workloadDefault
	}
	m := int(frac * float64(sets))
	if m < 1 {
		m = 1
	}
	return m
}

// errSub builds a StatusErr sub-reply.
func errSub(msg string) *wire.SubReply {
	return &wire.SubReply{Status: wire.StatusErr, Err: msg, Level: wire.NoLevel}
}

// meteredEngine wraps an application engine to charge each Algorithm 1
// step for the data units it touches, both ways a sub-operation is
// charged: credited to the request's cost account — the Scanned
// dimension of cost attribution, present on traced requests — and paid
// for at the modeled unit cost. It is installed only when one of the two
// applies, so the untraced, uncosted hot path never pays the
// indirection.
//
// Costs are paid through a debt account: sub-millisecond charges are
// accumulated and slept in chunks, and each sleep's measured overshoot
// (Go timers overshoot small sleeps by up to ~1ms under load) is
// credited back against the sub-operation's later charges. The account
// lives in the pooled subop record, which is zeroed on release, so it
// never crosses a sub-operation: a run's last sub-millisecond of debt
// goes unpaid, and an overshoot its later charges do not absorb is
// never credited.
type meteredEngine struct {
	algorithm1
	synopsis int           // data units the synopsis pass touches
	acct     *cost.Account // nil: untraced
	unit     time.Duration // 0: pure compute
	debt     time.Duration
}

// charge credits and pays for units data units; it sleeps once at least
// a millisecond is owed.
func (e *meteredEngine) charge(units int) {
	e.acct.Add(cost.Usage{Scanned: uint64(units)})
	if e.unit <= 0 {
		return
	}
	e.debt += time.Duration(units) * e.unit
	if e.debt < time.Millisecond {
		return
	}
	t0 := time.Now()
	time.Sleep(e.debt)
	e.debt -= time.Since(t0)
}

func (e *meteredEngine) ProcessSynopsis() []float64 {
	e.charge(e.synopsis)
	return e.Engine.ProcessSynopsis()
}

func (e *meteredEngine) ProcessSet(g int) {
	e.charge(e.groups.GroupSize(g))
	e.Engine.ProcessSet(g)
}

// subop is one Algorithm 1 sub-operation's run state, pooled so that a
// run allocates nothing of its own: the deadline its budget check reads
// and the metered engine, when one is installed. The check, more, is
// bound into cont once, when the pool makes the record.
type subop struct {
	metered meteredEngine
	dl      time.Time // zero: no deadline
	cont    core.Continue
}

var subops = sync.Pool{New: func() any {
	s := new(subop)
	s.cont = s.more
	return s
}}

// getSubop returns a pooled record whose budget check stops Algorithm
// 1's improvement loop once dl (zero: none) has passed — the per-hop
// budget enforcement (the paper's l_spe measured from the remaining
// request budget, not from a local constant).
func getSubop(dl time.Time) *subop {
	s := subops.Get().(*subop)
	s.dl = dl
	return s
}

func (s *subop) more(int) bool { return s.dl.IsZero() || time.Now().Before(s.dl) }

// interfere applies the server's modeled co-located interference.
func (o BackendOptions) interfere(seq uint64) {
	if o.Interfere != nil {
		if d := o.Interfere(seq); d > 0 {
			time.Sleep(d)
		}
	}
}

// budget returns the sub-operation's deadline, min(propagated, now +
// SubBudget), zero for none: the propagated request deadline always
// remains the outer bound. On a served job it is folded into the job
// record, so the handler's context reports the deadline it works to
// without deriving a child (see job); a context from an in-process
// caller is left as it is.
func (o BackendOptions) budget(ctx context.Context) time.Time {
	dl, _ := ctx.Deadline()
	if o.SubBudget > 0 {
		if capped := time.Now().Add(o.SubBudget); dl.IsZero() || capped.Before(dl) {
			dl = capped
		}
	}
	if j, ok := ctx.(*job); ok {
		j.dl = unixNanos(dl)
	}
	return dl
}

// backend is what one workload supplies to the component-handler
// skeleton (newBackend). Everything else — validation, the l_spe budget,
// interference, the shard pick, crediting and paying for scanned units,
// and the one core.Run — is the skeleton's, so no workload can forget a
// step. The hooks are built once per handler, never per sub-operation.
type backend struct {
	kind   wire.Kind
	name   string  // names the workload in the malformed-request error
	shards int     // subset s is answered by shard s mod shards
	imax   float64 // default improvement fraction when IMaxFrac is unset
	// has reports whether req carries this workload's payload.
	has func(req *wire.Request) bool
	// exact answers an Exact-class request with the shard's full scan,
	// written into rep's payload (newSubReply), and returns the data units
	// it scanned.
	exact func(shard int, req *wire.Request, rep *wire.SubReply) (units int)
	// approx opens the shard's Algorithm 1 engine for req and returns it
	// with the data units its synopsis pass touches. A shard whose
	// approximate answer is itself one bounded scan (a live shard's
	// ladder read) answers into rep instead and returns the zero
	// algorithm1 with the units it scanned.
	approx func(shard int, req *wire.Request, rep *wire.SubReply) (a algorithm1, units int)
	// finish copies the improved result out of the engine approx opened
	// into rep, and releases the engine: a pooled engine keeps its own
	// arrays, and the reply its record's.
	finish func(e core.Engine, req *wire.Request, rep *wire.SubReply)
}

// algorithm1 is an opened engine with the shape of the synopsis it
// improves over: the ranked sets available (the imax base) and the data
// units improving each one scans. For cf and search that is a group's
// member volume (the component); the agg engine reports its own, the
// rows each stratum has left past the sample it already read.
type algorithm1 struct {
	core.Engine
	groups interface{ GroupSize(g int) int }
	sets   int
}

// newSubReply takes an OK sub-reply of kind from the record pool, with
// room for the two server spans of a traced request (wire.NewSubReply).
// On a served job the job keeps it, and the server releases it once its
// frame is written; an in-process caller's reply is its own to keep.
func newSubReply(ctx context.Context, kind wire.Kind, traced bool) *wire.SubReply {
	rep := wire.NewSubReply(kind, traced)
	if j, ok := ctx.(*job); ok {
		j.reply = rep
	}
	return rep
}

// hitSink appends ranked hits to a search reply as the engine's
// selector hands them out (the emit of SearchEach and TopKEach): no
// intermediate hit list.
type hitSink struct{ r *wire.SearchResult }

func (s hitSink) add(doc int, score float64) {
	s.r.Hits = append(s.r.Hits, wire.Hit{Doc: int32(doc), Score: score})
}

// queryBufs pools parsed-query storage across search sub-operations:
// ParseQueryInto refills it, so a shard parses a query without
// allocating once the pool has held one as long.
var queryBufs = sync.Pool{New: func() any { return new(textindex.Query) }}

// parseQuery analyzes text into pooled storage; the caller hands it
// back with putQuery (poison_norace.go) when done with it.
func parseQuery(ix *textindex.Index, text string) *textindex.Query {
	q := queryBufs.Get().(*textindex.Query)
	*q = ix.ParseQueryInto(*q, text)
	return q
}

// newBackend returns the component handler of one workload: Exact
// requests scan the whole shard; others run Algorithm 1 from the
// synopsis against the propagated budget.
func newBackend(opts BackendOptions, w backend) Handler {
	return func(ctx context.Context, req *wire.Request) *wire.SubReply {
		if req.Kind != w.kind || req.Subset < 0 || !w.has(req) {
			return errSub("netsvc: malformed " + w.name + " request")
		}
		dl := opts.budget(ctx)
		opts.interfere(req.Seq)
		shard := int(req.Subset) % w.shards
		rep := newSubReply(ctx, w.kind, req.Trace != 0)
		var a algorithm1
		var units int
		if req.SLO == wire.SLOExact {
			units = w.exact(shard, req, rep)
		} else {
			a, units = w.approx(shard, req, rep)
		}
		acct := cost.AccountFrom(ctx)
		if a.Engine == nil {
			// Answered by one scan: credit its units and pay for them.
			acct.Add(cost.Usage{Scanned: uint64(units)})
			if opts.UnitCost > 0 {
				time.Sleep(time.Duration(units) * opts.UnitCost)
			}
			return rep
		}
		s := getSubop(dl)
		eng := a.Engine
		if acct != nil || opts.UnitCost > 0 {
			s.metered = meteredEngine{algorithm1: a, synopsis: units, acct: acct, unit: opts.UnitCost}
			eng = &s.metered
		}
		trace := core.Run(eng, s.cont, opts.imax(a.sets, w.imax))
		s.release()
		rep.SetsProcessed = uint32(trace.SetsProcessed)
		w.finish(a.Engine, req, rep)
		return rep
	}
}

// NewAggBackend returns a handler serving the aggregation workload
// over comps (component c answers for subset c mod len(comps)). Exact
// requests scan every row; others run Algorithm 1 at the request's
// ladder level against the propagated budget.
func NewAggBackend(comps []*agg.Component, opts BackendOptions) Handler {
	return newBackend(opts, backend{
		kind: wire.KindAgg, name: "aggregation", shards: len(comps), imax: 1.0,
		has: hasAgg,
		exact: func(shard int, req *wire.Request, rep *wire.SubReply) int {
			c := comps[shard]
			setAgg(rep, agg.ExactResultInto(aggArrays(rep, c.T.NumKeys()), c, aggQuery(req)))
			return c.T.NumRows()
		},
		approx: func(shard int, req *wire.Request, _ *wire.SubReply) (algorithm1, int) {
			c := comps[shard]
			level := int(req.Level)
			if req.Level == wire.NoLevel {
				level = c.Syn.Levels() - 1
			}
			e := agg.GetEngine(c, aggQuery(req), level)
			return algorithm1{e, e, c.Syn.NumStrata()}, c.Syn.SampleUnits(e.Level)
		},
		finish: func(eng core.Engine, _ *wire.Request, rep *wire.SubReply) {
			e := eng.(*agg.Engine)
			rep.Level = int16(e.Level)
			res := e.Result()
			out := aggArrays(rep, len(res.Sum))
			copy(out.Sum, res.Sum)
			copy(out.Cnt, res.Cnt)
			copy(out.SumVar, res.SumVar)
			copy(out.CntVar, res.CntVar)
			e.Release()
		},
	})
}

func hasAgg(req *wire.Request) bool { return req.Agg != nil }

func aggQuery(req *wire.Request) agg.Query {
	return agg.Query{Op: agg.Op(req.Agg.Op), Lo: req.Agg.Lo, Hi: req.Agg.Hi}
}

// aggArrays sizes a pooled aggregation reply's arrays to n keys and
// returns them as a result to accumulate into (wire.SizeAgg).
func aggArrays(rep *wire.SubReply, n int) agg.Result {
	return AggResultOf(wire.SizeAgg(rep, n))
}

// setAgg ships a result in the reply's payload struct; its slices are
// not copied. A result accumulated into aggArrays' arrays is the
// record's own, so this only re-points the reply at it.
func setAgg(rep *wire.SubReply, res agg.Result) {
	*rep.Agg = wire.AggResult{Sum: res.Sum, Cnt: res.Cnt, SumVar: res.SumVar, CntVar: res.CntVar}
}

// cfQuery is one CF sub-operation's request in pooled storage — the
// active ratings copied out of the wire request — and, while Algorithm 1
// runs, the engine it opened, whose scorer reads the ratings until
// finish. It goes back to cfQueries after finish, or after the exact
// scan, keeping its ratings' capacity.
type cfQuery struct {
	*cf.Engine
	ratings []cf.Rating
}

var cfQueries = sync.Pool{New: func() any { return new(cfQuery) }}

// getCFQuery converts req's CF payload into a pooled query and returns it
// with the request over its ratings (sorted in place).
func getCFQuery(req *wire.Request) (*cfQuery, cf.Request) {
	q := cfQueries.Get().(*cfQuery)
	q.Engine, q.ratings = nil, q.ratings[:0]
	for _, r := range req.CF.Ratings {
		q.ratings = append(q.ratings, cf.Rating{Item: r.Item, Score: r.Score})
	}
	return q, cf.NewRequestInPlace(q.ratings, req.CF.Targets)
}

// NewCFBackend returns a handler serving the CF recommender workload
// over comps.
func NewCFBackend(comps []*cf.Component, opts BackendOptions) Handler {
	return newBackend(opts, backend{
		kind: wire.KindCF, name: "CF", shards: len(comps), imax: 1.0,
		has: func(req *wire.Request) bool { return req.CF != nil },
		exact: func(shard int, req *wire.Request, rep *wire.SubReply) int {
			c := comps[shard]
			q, creq := getCFQuery(req)
			res := cf.ExactResultInto(cfArrays(rep, len(creq.Targets)), c, creq)
			q.release()
			*rep.CF = wire.CFResult{Num: res.Num, Den: res.Den}
			return c.M.NumUsers()
		},
		approx: func(shard int, req *wire.Request, _ *wire.SubReply) (algorithm1, int) {
			c := comps[shard]
			q, creq := getCFQuery(req)
			q.Engine = cf.GetEngine(c, creq)
			return algorithm1{q, c, len(c.Aggs)}, len(c.Aggs)
		},
		finish: func(eng core.Engine, _ *wire.Request, rep *wire.SubReply) {
			q := eng.(*cfQuery)
			res := q.Result()
			out := cfArrays(rep, len(res.Num))
			copy(out.Num, res.Num)
			copy(out.Den, res.Den)
			q.Engine.Release()
			q.release()
		},
	})
}

// cfArrays sizes a pooled CF reply's arrays to n targets and returns them
// as a result to accumulate into (wire.SizeCF).
func cfArrays(rep *wire.SubReply, n int) cf.Result {
	return CFResultOf(wire.SizeCF(rep, n))
}

// searchK is the hit count a search request asks for: its own K, else
// wire.DefaultK. The components and the front server's merge pick k by
// it alike.
func searchK(req *wire.Request) int {
	if req.Search != nil && req.Search.K > 0 {
		return int(req.Search.K)
	}
	return wire.DefaultK
}

// NewSearchBackend returns a handler serving the web-search workload
// over comps.
func NewSearchBackend(comps []*textindex.Component, opts BackendOptions) Handler {
	return newBackend(opts, backend{
		kind: wire.KindSearch, name: "search", shards: len(comps), imax: 0.4,
		has: func(req *wire.Request) bool { return req.Search != nil },
		exact: func(shard int, req *wire.Request, rep *wire.SubReply) int {
			c := comps[shard]
			q := parseQuery(c.Ix, req.Search.Query)
			c.Ix.SearchEach(*q, searchK(req), hitSink{rep.Search}.add)
			putQuery(q)
			return c.Ix.NumDocs()
		},
		approx: func(shard int, req *wire.Request, _ *wire.SubReply) (algorithm1, int) {
			c := comps[shard]
			q := parseQuery(c.Ix, req.Search.Query)
			e := textindex.GetEngine(c, *q) // the engine keeps its own copy
			putQuery(q)
			return algorithm1{e, c, len(c.Aggs)}, len(c.Aggs)
		},
		finish: func(eng core.Engine, req *wire.Request, rep *wire.SubReply) {
			e := eng.(*textindex.Engine)
			e.TopKEach(searchK(req), hitSink{rep.Search}.add)
			e.Release()
		},
	})
}
