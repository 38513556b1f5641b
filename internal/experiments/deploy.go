package experiments

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/breaker"
	"accuracytrader/internal/faultinject"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/wire"
)

// deployment is one loopback stack of the serving experiments: n
// component servers, the aggregator over them and — given front — a
// front server with its frontend and planes.
type deployment struct {
	n       int
	handler func(i int) netsvc.Handler
	server  netsvc.ServerOptions
	agg     *netsvc.AggregatorOptions // nil: gatherAll
	// fabric, when set, carries every component listener and aggregator
	// dial, so a component can be crashed, stalled or healed.
	fabric *faultinject.Fabric
	// lives, when set, are the live stores server i appends to
	// (lives[i]), through the front server's forwarding.
	lives []*ingest.AggLive
	// front is the front server's options, planes included; nil deploys
	// none, and callers drive the aggregator.
	front *netsvc.ServerOptions
	// levelAcc calibrates the standard frontend, admitting at most
	// inflight requests (0: every one); nil runs the front server's
	// default frontend.
	levelAcc []float64
	inflight int
}

// shared serves every component with one handler.
func shared(h netsvc.Handler) func(int) netsvc.Handler {
	return func(int) netsvc.Handler { return h }
}

// served is a running deployment, the target its client is and the
// fabric its faults go through.
type served struct {
	*netsvc.Loopback
	target
	fabric *faultinject.Fabric
}

// start deploys d; the caller closes it.
func (d deployment) start() (*served, error) {
	spec := netsvc.LoopbackSpec{Components: d.n, Handler: d.handler, Server: d.server, Agg: gatherAll}
	if d.agg != nil {
		spec.Agg = *d.agg
	}
	if fab := d.fabric; fab != nil {
		spec.WrapListener = func(_ int, l net.Listener) net.Listener {
			return fab.Script(l.Addr().String()).WrapListener(l)
		}
		spec.Agg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return fab.Script(addr).Dialer(func(a string, to time.Duration) (net.Conn, error) {
				return net.DialTimeout("tcp", a, to)
			})(addr, timeout)
		}
	}
	if d.lives != nil {
		spec.Ingest = func(i int) netsvc.IngestHandler {
			return netsvc.NewLiveIngestHandler(netsvc.LiveStores{Agg: d.lives[i : i+1]})
		}
	}
	if d.front != nil {
		spec.Front = &netsvc.FrontSpec{Server: *d.front}
		if d.levelAcc != nil {
			opts, err := standardOptions(d.inflight, d.levelAcc)
			if err != nil {
				return nil, err
			}
			spec.Front.Frontend = &opts
		}
	}
	lb, err := netsvc.StartLoopback(spec)
	if err != nil {
		return nil, err
	}
	return &served{lb, target{lb.Client.Call, d.levelAcc}, d.fabric}, nil // a nil Client's Call is never made
}

// heal clears component comp's fault and waits up to limit until its
// breaker, which only a landed probe dial re-closes, is closed again,
// returning how long that took.
func (st *served) heal(comp int, limit time.Duration) (time.Duration, error) {
	st.fabric.Script(st.Addrs[comp]).Set(faultinject.None)
	t0 := time.Now()
	if !waitFor(func() bool { return st.Agg.BreakerState(comp) == breaker.Closed }, limit) {
		return 0, fmt.Errorf("breaker on %s still %v after heal", st.Addrs[comp], st.Agg.BreakerState(comp))
	}
	return time.Since(t0), nil
}

// ask is one request of a load: the request, its stamp and the exact
// estimates its answer is scored against (nil: none).
type ask struct {
	req *wire.Request
	stamp
	ref []float64
}

// load is what a serving experiment offers a target: request r, built
// by request, goes out at at[r] ms after the start whatever earlier ones
// are doing (open-loop), or, with at nil, n requests run closed-loop
// over workers, worker w issuing a contiguous block of indices in order.
// timeout, when set, bounds each call.
type load struct {
	at         []float64
	n, workers int
	request    func(r int, intended time.Time) ask
	timeout    time.Duration
}

// run offers l to tg and hands fold every outcome, one at a time on the
// calling goroutine, with the request's index and its latency from the
// intended send; a nil fold fails on any outcome but ReplyOK. The first
// fold error is returned naming its request: no outcome after it is
// folded, and the load stops starting requests. It returns an open-loop
// load's worst send lag behind its schedule, in ms.
func (l load) run(tg target, fold func(r int, latMs float64, o outcome) error) (lagMs float64, err error) {
	type result struct {
		r     int
		latMs float64
		o     outcome
	}
	results := make(chan result)
	var stop atomic.Bool
	one := func(r int, intended time.Time) {
		if stop.Load() {
			return
		}
		a := l.request(r, intended)
		ctx := context.Background()
		if l.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, l.timeout)
			defer cancel()
		}
		o := tg.issue(ctx, a.req, a.stamp, a.ref)
		results <- result{r, ms(o.at.Sub(intended)), o}
	}
	go func() {
		defer close(results)
		if l.at != nil {
			lagMs = ms(netsvc.OpenLoop(l.at, one))
			return
		}
		w := max(l.workers, 1)
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func() {
				defer wg.Done()
				for r := k * l.n / w; r < (k+1)*l.n/w; r++ {
					one(r, time.Now())
				}
			}()
		}
		wg.Wait()
	}()
	for res := range results {
		if err != nil {
			continue // drain the requests already in flight
		}
		ferr := res.o.failed()
		if fold != nil {
			ferr = fold(res.r, res.latMs, res.o)
		}
		if ferr != nil {
			err = fmt.Errorf("request %d: %w", res.r, ferr)
			stop.Store(true)
		}
	}
	return lagMs, err
}

// waitFor polls cond every millisecond until it holds (true) or limit
// has passed (false).
func waitFor(cond func() bool, limit time.Duration) bool {
	end := time.Now().Add(limit)
	for !cond() {
		if !time.Now().Before(end) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
