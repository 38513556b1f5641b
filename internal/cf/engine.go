package cf

import (
	"math"
	"slices"
	"sync"

	"accuracytrader/internal/poison"
)

// Request is one recommendation request: an active user's known ratings
// and the target items whose ratings should be predicted. All targets
// share the neighbour weights, so one request processes the component data
// once regardless of the target count.
type Request struct {
	Ratings []Rating // active user's known ratings, sorted by item
	Targets []int32  // items to predict
}

// NewRequest copies the active ratings, sorts the copy by item and
// returns a Request.
func NewRequest(ratings []Rating, targets []int32) Request {
	return NewRequestInPlace(append([]Rating(nil), ratings...), targets)
}

// NewRequestInPlace is NewRequest taking ownership of ratings instead of
// copying them: the slice is sorted in place unless it already is (the
// same comparator decides both, so an unsorted vector ends up exactly
// as NewRequest always left it).
func NewRequestInPlace(ratings []Rating, targets []int32) Request {
	if !slices.IsSortedFunc(ratings, compareItems) {
		sortRatings(ratings)
	}
	return Request{Ratings: ratings, Targets: targets}
}

// ActiveMean returns the mean of the active user's known ratings.
func (r Request) ActiveMean() float64 {
	if len(r.Ratings) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range r.Ratings {
		s += x.Score
	}
	return s / float64(len(r.Ratings))
}

// Result is a component's partial prediction state: per target item, the
// weighted deviation sum and the weight normalizer. Partial results from
// many components merge by addition, so the composer can combine exact,
// approximate and skipped components uniformly.
type Result struct {
	Num []float64
	Den []float64
}

// NewResult returns a zeroed result for n targets.
func NewResult(n int) Result {
	return Result{Num: make([]float64, n), Den: make([]float64, n)}
}

// Reset re-zeroes the result for n targets, reusing the buffers when
// capacity allows, and returns the (possibly re-anchored) result.
func (r Result) Reset(n int) Result {
	if cap(r.Num) < n {
		return NewResult(n)
	}
	r.Num = r.Num[:n]
	r.Den = r.Den[:n]
	clear(r.Num)
	clear(r.Den)
	return r
}

// Merge adds other into r.
func (r Result) Merge(other Result) {
	for i := range r.Num {
		r.Num[i] += other.Num[i]
		r.Den[i] += other.Den[i]
	}
}

// Predictions converts merged partial results into final predicted
// ratings: activeMean + num/den, falling back to the active mean when no
// neighbour rated the target. The slice is freshly allocated; hot paths
// should use PredictionsInto.
func (r Result) Predictions(activeMean float64) []float64 {
	return r.PredictionsInto(nil, activeMean)
}

// PredictionsInto writes the predictions into dst (reused when capacity
// allows, truncated first) and returns it.
func (r Result) PredictionsInto(dst []float64, activeMean float64) []float64 {
	dst = dst[:0]
	for i := range r.Num {
		if r.Den[i] > 0 {
			dst = append(dst, activeMean+r.Num[i]/r.Den[i])
		} else {
			dst = append(dst, activeMean)
		}
	}
	return dst
}

// Engine runs Algorithm 1 for one CF request on one component. It
// implements core.Engine: ProcessSynopsis predicts from aggregated users
// and returns |weight| correlations; ProcessSet replaces one aggregated
// user's coarse contribution with its member users' exact contributions.
type Engine struct {
	Comp *Component
	Req  Request

	res        Result
	aggWeights []float64
	corr       []float64
	sc         scorer
}

// NewEngine prepares an engine for a request.
func NewEngine(c *Component, req Request) *Engine {
	e := &Engine{}
	e.Reset(c, req)
	return e
}

// Reset re-targets the engine at a component and request, reusing all
// internal buffers (result accumulators, weight vectors and the bound
// scorer's table). It makes engines poolable across requests.
func (e *Engine) Reset(c *Component, req Request) {
	e.Comp, e.Req = c, req
	e.res = e.res.Reset(len(req.Targets))
	e.sc.bind(c.M.NumItems(), req.Ratings, req.Targets)
}

// enginePool recycles Engines across requests (see GetEngine).
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// GetEngine returns a pooled engine reset for the request. Release it
// with Engine.Release when the request is finished.
func GetEngine(c *Component, req Request) *Engine {
	e := enginePool.Get().(*Engine)
	e.Reset(c, req)
	return e
}

// Release returns the engine to the pool. The engine, its Result and any
// slice obtained from ProcessSynopsis must not be used afterwards.
func (e *Engine) Release() {
	poison.Released(e.Comp == nil, "cf: engine")
	poison.NaN(e.res.Num, e.res.Den, e.aggWeights, e.corr)
	e.Comp = nil
	e.Req = Request{}
	e.sc.active = nil
	enginePool.Put(e)
}

// ProcessSynopsis computes the aggregated-user weights, accumulates their
// contributions as the initial result, and returns the correlation
// estimates (|weight|, per paper §4.2's evaluation of weights as
// correlations). The returned slice is owned by the engine and valid
// until the next Reset or Release.
func (e *Engine) ProcessSynopsis() []float64 {
	m := len(e.Comp.Aggs)
	if cap(e.aggWeights) < m {
		e.aggWeights = make([]float64, m)
		e.corr = make([]float64, m)
	} else {
		e.aggWeights = e.aggWeights[:m]
		e.corr = e.corr[:m]
	}
	for g, ag := range e.Comp.Aggs {
		w := e.sc.fold(e.res, ag.Ratings, ag.Mean)
		e.aggWeights[g] = w
		e.corr[g] = math.Abs(w)
	}
	return e.corr
}

// ProcessSet improves the result with group g's original users: the
// aggregated contribution is retracted and each member user contributes
// with its exact weight (Algorithm 1 line 7).
func (e *Engine) ProcessSet(g int) {
	ag := e.Comp.Aggs[g]
	e.sc.foldAt(e.res, e.aggWeights[g], ag.Ratings, ag.Mean, -1)
	for _, u := range ag.Members {
		e.sc.foldUser(e.res, e.Comp.M, u)
	}
}

// Result returns the current partial result. It aliases the engine's
// accumulators: for a pooled engine, copy it or use TakeResult before
// Release.
func (e *Engine) Result() Result { return e.res }

// TakeResult returns the current partial result and detaches it from the
// engine, so it stays valid after Release (the engine's next Reset
// allocates fresh accumulators).
func (e *Engine) TakeResult() Result {
	r := e.res
	e.res = Result{}
	return r
}

// ExactResult computes the component's exact partial result: every
// original user contributes — the paper's "full computation over the
// entire input data" baseline.
func ExactResult(c *Component, req Request) Result {
	return ExactResultInto(Result{}, c, req)
}

// ExactResultInto is ExactResult accumulating into res's reused buffers
// (re-zeroed first); it returns the (possibly re-anchored) result. The
// scan borrows a pooled engine for its scorer, so the exact and the
// Algorithm 1 paths warm the same tables.
func ExactResultInto(res Result, c *Component, req Request) Result {
	res = res.Reset(len(req.Targets))
	e := enginePool.Get().(*Engine)
	e.Comp = c // checked out, as Release expects
	e.sc.bind(c.M.NumItems(), req.Ratings, req.Targets)
	for u := 0; u < c.M.NumUsers(); u++ {
		e.sc.foldUser(res, c.M, u)
	}
	e.Release()
	return res
}

// RMSE returns the root-mean-square error between predicted and actual
// ratings (the paper's recommender accuracy metric). It returns NaN for
// empty input.
func RMSE(predicted, actual []float64) float64 {
	if len(predicted) != len(actual) {
		panic("cf: RMSE length mismatch")
	}
	if len(predicted) == 0 {
		return math.NaN()
	}
	se := 0.0
	for i := range predicted {
		d := predicted[i] - actual[i]
		se += d * d
	}
	return math.Sqrt(se / float64(len(predicted)))
}
