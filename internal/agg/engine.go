package agg

import (
	"math"
	"sync"

	"accuracytrader/internal/poison"
)

// Op selects the aggregate of a Query.
type Op int

// The supported per-group aggregates.
const (
	Sum Op = iota
	Count
	Avg
)

// String returns the SQL-ish name of the aggregate.
func (o Op) String() string {
	switch o {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	default:
		return "AVG"
	}
}

// Query is one aggregation request: Op(value) GROUP BY key over the
// rows whose value falls in the half-open filter window [Lo, Hi) —
// the WHERE clause that makes every estimate genuinely sample-based.
// A row is kept exactly when Lo <= v && v < Hi, so a NaN value or a
// NaN bound keeps nothing and Lo >= Hi is an empty window.
type Query struct {
	Op     Op
	Lo, Hi float64
}

// negZero is −0.0's bit pattern. −0.0 is the additive identity of IEEE
// round-to-nearest arithmetic: x + (−0.0) is bitwise x for every x a
// sum can hold, −0.0 and NaN included, so it is what a row the window
// drops adds.
const negZero = 1 << 63

// keep is the scan kernels' one selection step, a select instead of a
// branch: a window that keeps a large, query-dependent share of rows
// arriving in shuffled order makes a branch a coin flip. The two
// compares become the select s (1 keeps the row, 0 drops it) and keep
// returns (v, 1) or (−0.0, 0), so adding both unconditionally leaves
// every accumulator bit-identical to the branchy "if kept, add".
func (q Query) keep(v float64) (float64, uint64) {
	s := b2u(q.Lo <= v) & b2u(v < q.Hi)
	return orNegZero(s, math.Float64bits(v)), s
}

// oneBits is 1.0's bit pattern.
const oneBits = 0x3ff0000000000000

// orNegZero returns the float with bits x if the select s is 1 and −0.0
// if it is 0. The assignment is a conditional move (CMOVQEQ on amd64),
// not a jump: it measured 5–20% faster on the scan than the same pick
// as mask arithmetic, (x^negZero)&-s ^ negZero.
func orNegZero(s, x uint64) float64 {
	if s == 0 {
		x = negZero
	}
	return math.Float64frombits(x)
}

// b2u is a bool as 0 or 1; the compiler emits a SETcc, not a jump.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// zCI is the 95% normal quantile used for the CLT confidence bounds.
const zCI = 1.96

// Result is a component's partial answer: per group key, the estimated
// filtered SUM and COUNT plus the variances of those estimators.
// Partial results from many components merge by addition (sums and
// counts add; variances add because shards are sampled independently),
// so the composer combines exact, approximate and skipped components
// uniformly — the same merge contract as cf.Result.
type Result struct {
	Sum    []float64
	Cnt    []float64
	SumVar []float64
	CntVar []float64
}

// NewResult returns a zeroed result over n group keys. The four arrays
// are carved from one allocation, each capped at its length so an
// append to one never writes into its neighbour.
func NewResult(n int) Result {
	b := make([]float64, 4*n)
	return Result{
		Sum:    b[0*n : 1*n : 1*n],
		Cnt:    b[1*n : 2*n : 2*n],
		SumVar: b[2*n : 3*n : 3*n],
		CntVar: b[3*n : 4*n : 4*n],
	}
}

// Reset re-zeroes the result for n keys, reusing the buffers when
// capacity allows, and returns the (possibly re-anchored) result.
func (r Result) Reset(n int) Result {
	if cap(r.Sum) < n {
		return NewResult(n)
	}
	r.Sum, r.Cnt = r.Sum[:n], r.Cnt[:n]
	r.SumVar, r.CntVar = r.SumVar[:n], r.CntVar[:n]
	clear(r.Sum)
	clear(r.Cnt)
	clear(r.SumVar)
	clear(r.CntVar)
	return r
}

// Merge adds other into r. Both results must cover the same key
// domain; merging shards built over different NumKeys is a caller bug
// surfaced here instead of as silently dropped keys.
func (r Result) Merge(other Result) {
	if len(r.Sum) != len(other.Sum) {
		panic("agg: Merge key-domain mismatch")
	}
	for i := range r.Sum {
		r.Sum[i] += other.Sum[i]
		r.Cnt[i] += other.Cnt[i]
		r.SumVar[i] += other.SumVar[i]
		r.CntVar[i] += other.CntVar[i]
	}
}

// Estimate returns the point estimate of op for group key k. AVG of an
// empty group is 0 (both for exact and approximate answers, so the two
// stay comparable).
func (r Result) Estimate(op Op, k int) float64 {
	switch op {
	case Sum:
		return r.Sum[k]
	case Count:
		return r.Cnt[k]
	default:
		if r.Cnt[k] <= 0 {
			return 0
		}
		return r.Sum[k] / r.Cnt[k]
	}
}

// Bound returns the 95% CLT confidence half-width of the op estimate
// for group key k. SUM and COUNT bounds are exact normal-approximation
// half-widths; the AVG bound is the first-order (delta-method,
// triangle-inequality) linearization
//
//	(z·σ_sum + |avg|·z·σ_cnt) / count,
//
// which is conservative. Exactly processed strata have zero variance,
// so bounds shrink as Algorithm 1 improves the result.
func (r Result) Bound(op Op, k int) float64 {
	switch op {
	case Sum:
		return zCI * math.Sqrt(r.SumVar[k])
	case Count:
		return zCI * math.Sqrt(r.CntVar[k])
	default:
		if r.Cnt[k] <= 0 {
			return 0
		}
		est := r.Sum[k] / r.Cnt[k]
		return (zCI*math.Sqrt(r.SumVar[k]) + math.Abs(est)*zCI*math.Sqrt(r.CntVar[k])) / r.Cnt[k]
	}
}

// correlation is stratum k's correlation to the query's accuracy per
// row improving it would read: the relative CI bound Bound/|Estimate|
// over rows. Accuracy is 1 − mean relative error over groups, so a wide
// bound on a large estimate matters less than a narrow one on a small
// estimate; and an improvement reads the stratum's rows past its
// sample, so of two equally uncertain strata the one that costs fewer
// rows to make exact goes first. A zero bound gives 0 (an exact or
// empty stratum gains nothing from improvement); a positive bound on a
// zero estimate or over no rows gives +Inf, and so does a NaN quotient
// — an error the sample cannot size ranks first. It never returns NaN,
// which core.Rank would order as equal to everything.
func (r Result) correlation(op Op, k int, rows float64) float64 {
	b := r.Bound(op, k)
	if b == 0 {
		return 0
	}
	c := b / math.Abs(r.Estimate(op, k)) / rows
	if c != c {
		return math.Inf(1)
	}
	return c
}

// Estimates returns the per-key point estimates of op. The slice is
// freshly allocated; hot paths should use EstimatesInto.
func (r Result) Estimates(op Op) []float64 { return r.EstimatesInto(nil, op) }

// EstimatesInto writes the per-key estimates into dst (reused when
// capacity allows, truncated first) and returns it.
func (r Result) EstimatesInto(dst []float64, op Op) []float64 {
	dst = dst[:0]
	for k := range r.Sum {
		dst = append(dst, r.Estimate(op, k))
	}
	return dst
}

// Bounds returns the per-key 95% confidence half-widths of op. The
// slice is freshly allocated; hot paths should use BoundsInto.
func (r Result) Bounds(op Op) []float64 { return r.BoundsInto(nil, op) }

// BoundsInto writes the per-key confidence half-widths into dst (reused
// when capacity allows, truncated first) and returns it.
func (r Result) BoundsInto(dst []float64, op Op) []float64 {
	dst = dst[:0]
	for k := range r.Sum {
		dst = append(dst, r.Bound(op, k))
	}
	return dst
}

// Engine runs Algorithm 1 for one aggregation query on one component.
// It implements core.Engine: ProcessSynopsis estimates every stratum
// from its ladder-level sample and returns the per-stratum relative
// error bounds per unread row as correlations; ProcessSet replaces one
// stratum's estimate with its exact value, finishing the scan where the
// sample stopped.
type Engine struct {
	Comp  *Component
	Q     Query
	Level int // ladder level served (coarse 0 … Levels-1)

	res  Result
	corr []float64
	scan []prefix // per stratum: the rows read so far, where ProcessSet resumes
}

// NewEngine prepares an engine for a query at a ladder level.
func NewEngine(c *Component, q Query, level int) *Engine {
	e := &Engine{}
	e.Reset(c, q, level)
	return e
}

// Reset re-targets the engine at a component, query and ladder level,
// reusing all internal buffers. It makes engines poolable across
// requests.
func (e *Engine) Reset(c *Component, q Query, level int) {
	e.Comp, e.Q = c, q
	e.Level = c.Syn.clampLevel(level)
	e.res = e.res.Reset(c.T.NumKeys())
	n := c.Syn.NumStrata()
	if cap(e.corr) < n {
		e.corr = make([]float64, n)
		e.scan = make([]prefix, n)
	} else {
		e.corr = e.corr[:n]
		e.scan = e.scan[:n]
		clear(e.scan)
	}
}

// enginePool recycles Engines across requests (see GetEngine).
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// GetEngine returns a pooled engine reset for the query. Release it
// with Engine.Release when the request is finished.
func GetEngine(c *Component, q Query, level int) *Engine {
	e := enginePool.Get().(*Engine)
	e.Reset(c, q, level)
	return e
}

// Release returns the engine to the pool. The engine, its Result and
// any slice obtained from ProcessSynopsis must not be used afterwards.
func (e *Engine) Release() {
	poison.Released(e.Comp == nil, "agg: engine")
	poison.NaN(e.res.Sum, e.res.Cnt, e.res.SumVar, e.res.CntVar, e.corr)
	e.Comp = nil
	e.Q = Query{}
	enginePool.Put(e)
}

// ProcessSynopsis estimates every stratum from its ladder-level sample
// (Horvitz-Thompson scaling N/n with finite-population-corrected CLT
// variances) and returns the per-stratum error contributions per row
// an improvement would read — the requested aggregate's CI half-width
// relative to its estimate, over GroupSize (see Result.correlation) —
// as the correlation estimates.
// It keeps each sample's raw scan, so ProcessSet reads only the rows
// past it. The returned slice is owned by the engine and valid until
// the next Reset or Release.
func (e *Engine) ProcessSynopsis() []float64 {
	syn := e.Comp.Syn
	for g := 0; g < syn.NumStrata(); g++ {
		N := float64(syn.StratumSize(g))
		if N == 0 {
			e.corr[g] = 0
			continue
		}
		sum, cnt, sumVar, cntVar, p := stratumEstimate(e.Comp.T.vals, e.Q, syn.sample(e.Level, g), N)
		e.scan[g] = p
		e.res.Sum[g] = sum
		e.res.Cnt[g] = cnt
		e.res.SumVar[g] = sumVar
		e.res.CntVar[g] = cntVar
		e.corr[g] = e.res.correlation(e.Q.Op, g, float64(e.GroupSize(g)))
	}
	return e.corr
}

// stratumEstimate computes one stratum's scaled SUM/COUNT estimates and
// estimator variances from its sampled rows, and returns the sample's
// raw scan beside them. A fully sampled stratum (n == N) is exact:
// scale 1, variance 0. For n < N the variances use the standard
// stratified-sampling form N²·s²/n·(1−n/N), with the per-row variances
// s² floored by Agresti–Coull pseudo-counts: with p̃ = (kept+2)/(n+4),
// the kept indicator's s² is at least p̃(1−p̃), and the kept values'
// at least p̃(1−p̃)·Σv²/n over every sampled row, kept or not. The
// floor keeps the bound of a sample that kept few rows or none from
// collapsing to the Wald interval's zero width, so the nominal 95%
// bounds cover on samples as small as MinSample. n ≥ 2 whenever n < N
// because the per-stratum sample floor is at least 2.
func stratumEstimate(vals []float64, q Query, sample []int32, N float64) (sum, cnt, sumVar, cntVar float64, p prefix) {
	n := float64(len(sample))
	var sy, syy, svv float64
	var kept uint64
	for _, row := range sample {
		raw := vals[row]
		v, s := q.keep(raw)
		sy += v
		syy += v * v // a dropped row's (−0.0)² is +0.0, and syy is never −0.0
		svv += raw * raw
		kept += s
	}
	p = prefix{sum: sy, kept: kept, rows: len(sample)}
	sb := float64(kept) // exact: a float count of ones is exact below 2⁵³
	scale := N / n
	sum = scale * sy
	cnt = scale * sb
	if n >= N {
		return sum, cnt, 0, 0, p
	}
	fpc := 1 - n/N
	pt := (sb + 2) / (n + 4)
	pq := pt * (1 - pt)
	s2y := (syy - sy*sy/n) / (n - 1)
	if s2y < 0 { // float cancellation on near-constant samples
		s2y = 0
	}
	if floor := pq * svv / n; s2y < floor {
		s2y = floor
	}
	s2b := (sb - sb*sb/n) / (n - 1)
	if s2b < pq {
		s2b = pq
	}
	sumVar = N * N * s2y / n * fpc
	cntVar = N * N * s2b / n * fpc
	return sum, cnt, sumVar, cntVar, p
}

// prefix is a scan of a stratum's first rows, in the synopsis's stored
// order: how many rows it read and their raw, unscaled filtered sum and
// kept count. A ladder-level sample is such a prefix, because samples
// are nested prefixes of one shuffle.
type prefix struct {
	sum  float64
	kept uint64
	rows int
}

// resume finishes p's scan over rows, the whole stratum, reading only
// rows[p.rows:], and returns the scan of all of it. The accumulators
// carry on where p stopped, so the float adds are the same ones, in
// the same order from +0.0, as one scan from the first row: the sum is
// bit-identical however the stratum was split.
func (p prefix) resume(vals []float64, q Query, rows []int32) prefix {
	sum, kept := p.sum, p.kept
	for _, row := range rows[p.rows:] {
		v, s := q.keep(vals[row])
		sum += v
		kept += s
	}
	return prefix{sum: sum, kept: kept, rows: len(rows)}
}

// ProcessSet improves the result with stratum g's original rows: the
// sample-based estimate is replaced by the stratum's exact value
// (Algorithm 1 line 7), its scan resumed where the synopsis pass's
// sample stopped. Strata map 1:1 onto group keys, so replacement is
// exact — no floating-point retraction residue. Improving a stratum
// again reads nothing and leaves it as it is.
func (e *Engine) ProcessSet(g int) {
	p := e.scan[g].resume(e.Comp.T.vals, e.Q, e.Comp.Syn.stratumRows(g))
	e.scan[g] = p
	e.res.Sum[g] = p.sum
	e.res.Cnt[g] = float64(p.kept)
	e.res.SumVar[g] = 0
	e.res.CntVar[g] = 0
}

// GroupSize returns the rows ProcessSet(g) will read: the stratum's rows
// past its sample once ProcessSynopsis has run, all of them before, and
// none once the stratum is exact. It is the data volume an improvement
// step scans, for metering it.
func (e *Engine) GroupSize(g int) int { return e.Comp.Syn.StratumSize(g) - e.scan[g].rows }

// Fold adds the rows of a key/value batch the query's window keeps into
// r exactly, with zero variance: the scatter form of the scan kernel,
// for rows no synopsis covers yet (a live shard's unmerged delta). Each
// key must lie in r's key domain.
func (r Result) Fold(q Query, keys []int32, vals []float64) {
	vals = vals[:len(keys)]
	for i, k := range keys {
		v, s := q.keep(vals[i])
		r.Sum[k] += v
		r.Cnt[k] += orNegZero(s, oneBits)
	}
}

// Result returns the current partial result. It aliases the engine's
// accumulators: for a pooled engine, copy it or use TakeResult before
// Release.
func (e *Engine) Result() Result { return e.res }

// TakeResult returns the current partial result and detaches it from
// the engine, so it stays valid after Release.
func (e *Engine) TakeResult() Result {
	r := e.res
	e.res = Result{}
	return r
}

// ExactResult computes the component's exact partial answer: every row
// is scanned — the paper's "full computation over the entire input
// data" baseline. Scanning goes stratum by stratum in the synopsis's
// stored row order, so fully improving an engine yields bit-identical
// accumulators.
func ExactResult(c *Component, q Query) Result {
	return ExactResultInto(Result{}, c, q)
}

// ExactResultInto is ExactResult accumulating into res's reused buffers
// (re-zeroed first); it returns the (possibly re-anchored) result.
func ExactResultInto(res Result, c *Component, q Query) Result {
	res = res.Reset(c.T.NumKeys())
	for g := 0; g < c.Syn.NumStrata(); g++ {
		p := prefix{}.resume(c.T.vals, q, c.Syn.stratumRows(g))
		res.Sum[g] = p.sum
		res.Cnt[g] = float64(p.kept)
	}
	return res
}

// MeanRelativeError is the error half of the aggregation accuracy
// metric: the mean over group keys of the relative error of approx
// against exact, where each key's error is |a−e|/|e| capped at 1, 0
// when both are zero, and 1 when only the exact answer is zero. The
// cap keeps accuracy in [0,1] even for wildly wrong estimates.
func MeanRelativeError(approx, exact []float64) float64 {
	if len(approx) != len(exact) {
		panic("agg: MeanRelativeError length mismatch")
	}
	if len(exact) == 0 {
		return 0
	}
	total := 0.0
	for i := range exact {
		total += relErr(approx[i], exact[i])
	}
	return total / float64(len(exact))
}

func relErr(a, e float64) float64 {
	if a == e {
		return 0
	}
	if e == 0 {
		return 1
	}
	err := math.Abs(a-e) / math.Abs(e)
	if err > 1 {
		return 1
	}
	return err
}

// Accuracy is 1 − MeanRelativeError — the aggregation application's
// accuracy metric (the analogue of the recommender's RMSE-based
// accuracy and the search engine's top-k overlap).
func Accuracy(approx, exact []float64) float64 {
	return 1 - MeanRelativeError(approx, exact)
}

// MeasureLevelAccuracy calibrates one ladder level: it replays the
// queries synopsis-only (no set improvement) across all components,
// merges the partial results, and returns the mean accuracy against
// the exact merged answers. The per-level values feed the frontend
// degradation controller's LevelAccuracy — the bridge that lets
// Bounded{MinAccuracy} SLO classes map onto real measured error. The
// exact side is the same engine improved over every stratum, so each
// row is read once: the sample by the synopsis pass, the rest by the
// resumed scans.
func MeasureLevelAccuracy(comps []*Component, queries []Query, level int) float64 {
	if len(comps) == 0 || len(queries) == 0 {
		return 0
	}
	nKeys := comps[0].T.NumKeys()
	approx := NewResult(nKeys)
	exact := NewResult(nKeys)
	var estA, estE []float64
	total := 0.0
	for _, q := range queries {
		approx = approx.Reset(nKeys)
		exact = exact.Reset(nKeys)
		for _, c := range comps {
			e := GetEngine(c, q, level)
			e.ProcessSynopsis()
			approx.Merge(e.Result())
			for g := range c.Syn.NumStrata() {
				e.ProcessSet(g)
			}
			exact.Merge(e.Result())
			e.Release()
		}
		estA = approx.EstimatesInto(estA, q.Op)
		estE = exact.EstimatesInto(estE, q.Op)
		total += Accuracy(estA, estE)
	}
	return total / float64(len(queries))
}
