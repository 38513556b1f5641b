package service_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"accuracytrader/internal/breaker"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// The gather core is tested through a scripted fake transport (no
// sockets, no workers), and then differentially: the same scripted
// scenario is pushed through the fake, a service.Cluster and a
// loopback netsvc.Aggregator, which must all make the same decisions.

// stepKind is what a scripted arrival does.
type stepKind int

const (
	answer stepKind = iota // answer after step.after
	never                  // hold the sub-operation until the script is released
	fail                   // fail at the peer level
)

type step struct {
	kind  stepKind
	after time.Duration
}

// script is the scenario every transport under test consults: per
// subset, what the k-th accepted arrival does (past the end: answer at
// once). It also logs where each arrival ran.
type script struct {
	mu       sync.Mutex
	steps    map[int][]step
	arrivals map[int][]int // subset -> components its arrivals ran on
	parkOn   int           // "park" payloads hold this component's queue
	release  chan struct{} // closed at cleanup: frees never-steps and parked work
}

func newScript(steps map[int][]step, parkOn int) *script {
	return &script{steps: steps, arrivals: map[int][]int{}, parkOn: parkOn, release: make(chan struct{})}
}

func (s *script) arrive(subset, comp int) step {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := len(s.arrivals[subset])
	s.arrivals[subset] = append(s.arrivals[subset], comp)
	if k < len(s.steps[subset]) {
		return s.steps[subset][k]
	}
	return step{}
}

// run performs one accepted arrival and reports whether it failed at
// the peer level; park arrivals hold parkOn's queue and answer. Held
// work waits for the release alone, never for its context: an answer
// racing the deadline would make the gather's decision a coin toss.
func (s *script) run(park bool, subset, comp int) (failed bool) {
	if park {
		if comp == s.parkOn {
			<-s.release
		}
		return false
	}
	switch st := s.arrive(subset, comp); st.kind {
	case never:
		<-s.release
	case fail:
		return true
	default:
		time.Sleep(st.after)
	}
	return false
}

// fakeTransport runs the script with no machinery at all: each accepted
// attempt is a goroutine, each target an outstanding window of cap.
type fakeTransport struct {
	s   *script
	cap int
	mu  sync.Mutex
	out []int
}

func (f *fakeTransport) QueueDepth(target int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.out[target]
}

func (f *fakeTransport) Probe(int, *breaker.Breaker) bool { return false }

func (f *fakeTransport) Send(_ context.Context, a service.Attempt, payload interface{}) bool {
	f.mu.Lock()
	if f.out[a.Target] >= f.cap {
		f.mu.Unlock()
		a.Done(service.Result{Outcome: service.OutcomeShed, Err: service.ErrQueueFull})
		return false
	}
	f.out[a.Target]++
	f.mu.Unlock()
	go func() {
		start := time.Now()
		failed := f.s.run(payload == "park", a.Subset, a.Target)
		f.mu.Lock()
		f.out[a.Target]--
		f.mu.Unlock()
		if failed {
			a.Done(service.Result{Outcome: service.OutcomePeerFailure, Err: errors.New("scripted peer failure")})
			return
		}
		a.Done(service.Result{Outcome: service.OutcomeAnswered, Value: "ok", Latency: time.Since(start)})
	}()
	return true
}

// syncTransport resolves every attempt inside Send with a canned
// result: the sleep-free way to feed the core outcomes and latencies.
type syncTransport struct{ next func() service.Result }

func (syncTransport) QueueDepth(int) int               { return 0 }
func (syncTransport) Probe(int, *breaker.Breaker) bool { return false }
func (t syncTransport) Send(_ context.Context, a service.Attempt, _ interface{}) bool {
	a.Done(t.next())
	return true
}

// TestShedRepliesDoNotFeedHedgeTrigger: a shed is a refusal, not a
// service-time sample. 5000 microsecond sheds after 50 answers at 10ms
// would be >95% of the sample and drag the p95 trigger to the floor if
// they were counted.
func TestShedRepliesDoNotFeedHedgeTrigger(t *testing.T) {
	r := service.Result{Outcome: service.OutcomeAnswered, Value: 1, Latency: 10 * time.Millisecond}
	g := service.NewGather(syncTransport{func() service.Result { return r }}, service.GatherConfig{
		N: 1, Policy: service.Hedged, Prefix: "t", Label: func(int) string { return `c="0"` },
	})
	defer g.Close()
	call := func() service.SubResult {
		subs, err := g.Call(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return subs[0]
	}
	for i := 0; i < 50; i++ {
		call()
	}
	warm := g.EstimatedP95()
	if warm < 9*time.Millisecond || warm > 11*time.Millisecond {
		t.Fatalf("warm hedge trigger = %v, want ~10ms", warm)
	}
	r = service.Result{Outcome: service.OutcomeShed, Err: service.ErrQueueFull, Latency: time.Microsecond}
	for i := 0; i < 5000; i++ {
		if sr := call(); !errors.Is(sr.Err, service.ErrQueueFull) {
			t.Fatalf("shed sub-result: %+v", sr)
		}
	}
	if got := g.EstimatedP95(); got != warm {
		t.Fatalf("hedge trigger moved %v -> %v on shed replies", warm, got)
	}
	if st := g.Stats(); st.SubOps != 50 {
		t.Fatalf("SubOps = %d, want the 50 answered samples only", st.SubOps)
	}
}

// --- the differential table ---

const (
	floor = 40 * time.Millisecond // hedge floor; the cold estimator holds it
	slow  = 5 * floor             // scripted delays sit >=5x the floor apart
	n     = 3
)

// outcome is what the gather decided for one subset.
type outcome struct {
	Arrivals []int // components its accepted attempts ran on, in order
	Hedged   bool
	As       string // answered | skipped | shed | failed
}

type decisions struct {
	Subs                    [n]outcome
	Hedges, Retries, Faults int64
}

// rig is one runtime under test.
type rig struct {
	call      func(ctx context.Context, park bool) ([]service.SubResult, error)
	setRouter func(service.RouteFunc)
	depth     func(comp int) int
	stats     func() service.Stats
	parked    int // park calls that fill one component's queue
}

type scenario struct {
	name     string
	policies []service.Policy
	steps    map[int][]step
	deadline time.Duration
	saturate int // component whose queue is full throughout (-1: none)
	route    service.RouteFunc
	// quick marks the policies whose call must return well before a slow
	// reply could (it neither waited out a straggler nor the deadline).
	quick []service.Policy
	// want's decisions for a policy and retry budget.
	want func(p service.Policy, budget int) decisions
}

func answered(arrivals ...int) outcome { return outcome{Arrivals: arrivals, As: "answered"} }

func home() [n]outcome { return [n]outcome{answered(0), answered(1), answered(2)} }

var allPolicies = []service.Policy{service.WaitAll, service.PartialGather, service.Hedged}

var scenarios = []scenario{{
	name: "all fast", policies: allPolicies, deadline: 15 * floor, saturate: -1, quick: allPolicies,
	want: func(service.Policy, int) decisions { return decisions{Subs: home()} },
}, {
	// WaitAll pays the straggler; Hedged's replica on the next component
	// wins well before it.
	name: "slow straggler", policies: allPolicies, deadline: 15 * floor, saturate: -1,
	steps: map[int][]step{1: {{answer, slow}}}, quick: []service.Policy{service.Hedged},
	want: func(p service.Policy, _ int) decisions {
		d := decisions{Subs: home()}
		if p == service.Hedged {
			d.Subs[1] = outcome{Arrivals: []int{1, 2}, Hedged: true, As: "answered"}
			d.Hedges = 1
		}
		return d
	},
}, {
	// Unanswered at the deadline: skipped, and evidence against the
	// component under every policy but Hedged, whose replica answers.
	name: "stuck straggler", policies: allPolicies, deadline: 6 * floor, saturate: -1,
	steps: map[int][]step{1: {{kind: never}}},
	want: func(p service.Policy, _ int) decisions {
		d := decisions{Subs: home()}
		if p == service.Hedged {
			d.Subs[1] = outcome{Arrivals: []int{1, 2}, Hedged: true, As: "answered"}
			d.Hedges = 1
		} else {
			d.Subs[1] = outcome{Arrivals: []int{1}, As: "skipped"}
			d.Faults = 1
		}
		return d
	},
}, {
	// Component 1 refuses everything: its own primary is shed (never
	// retried), and subset 0's replica, refused on the spot, leaves the
	// sub-operation unflagged and the hedge uncounted.
	name: "saturated replica target", policies: allPolicies, deadline: 15 * floor, saturate: 1,
	steps: map[int][]step{0: {{answer, slow}}},
	want: func(service.Policy, int) decisions {
		d := decisions{Subs: home()}
		d.Subs[1] = outcome{As: "shed"}
		return d
	},
}, {
	// A peer-level failure is retried within the budget (on the same
	// component: one fault does not open its breaker).
	name: "peer failure", policies: allPolicies, deadline: 15 * floor, saturate: -1,
	steps: map[int][]step{2: {{kind: fail}}},
	want: func(_ service.Policy, budget int) decisions {
		d := decisions{Subs: home(), Faults: 1}
		if budget > 0 {
			d.Subs[2], d.Retries = answered(2, 2), 1
		} else {
			d.Subs[2].As = "failed"
		}
		return d
	},
}, {
	// The router put subset 0's primary exactly where its replica would
	// go: the hedge is skipped rather than queued behind its primary.
	name: "replica collides with placement", policies: []service.Policy{service.Hedged},
	deadline: 15 * floor, saturate: -1,
	steps: map[int][]step{0: {{answer, slow}}},
	route: func(subset, _ int, _ func(int) int) int { return [n]int{1, 0, 2}[subset] },
	want: func(service.Policy, int) decisions {
		return decisions{Subs: [n]outcome{answered(1), answered(0), answered(2)}}
	},
}}

func TestGatherDifferential(t *testing.T) {
	builders := []struct {
		name   string
		budget int
		build  func(t *testing.T, p service.Policy, s *script, cap int) rig
	}{
		{"fake/budget0", 0, func(t *testing.T, p service.Policy, s *script, cap int) rig { return fakeRig(t, p, s, cap, 0) }},
		{"fake/budget1", 1, func(t *testing.T, p service.Policy, s *script, cap int) rig { return fakeRig(t, p, s, cap, 1) }},
		{"cluster", 0, clusterRig},
		{"aggregator", 1, aggregatorRig},
	}
	for _, sc := range scenarios {
		for _, p := range sc.policies {
			for _, b := range builders {
				sc, p, b := sc, p, b
				t.Run(fmt.Sprintf("%s/policy%d/%s", sc.name, p, b.name), func(t *testing.T) {
					got := runScenario(t, sc, p, b.build)
					if want := sc.want(p, b.budget); !reflect.DeepEqual(got, want) {
						t.Fatalf("decisions differ\n got  %+v\n want %+v", got, want)
					}
				})
			}
		}
	}
}

func runScenario(t *testing.T, sc scenario, p service.Policy, build func(*testing.T, service.Policy, *script, int) rig) decisions {
	s := newScript(sc.steps, sc.saturate)
	cap := 1 << 10
	if sc.saturate >= 0 {
		cap = 1
	}
	r := build(t, p, s, cap)
	// Cleanups run last-in first-out: release the script's held work
	// before the runtime's own Close waits on it.
	var parked sync.WaitGroup
	t.Cleanup(func() { close(s.release); parked.Wait() })
	if sc.route != nil {
		r.setRouter(sc.route)
	}
	if sc.saturate >= 0 {
		// Fill the component's queue with parked sub-operations, one call
		// at a time so each lands before the next is sent.
		for k := 1; k <= r.parked; k++ {
			parked.Add(1)
			go func() {
				defer parked.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				r.call(ctx, true)
			}()
			waitFor(t, r, fmt.Sprintf("component %d's queue at depth %d", sc.saturate, k),
				func() bool { return r.depth(sc.saturate) == k })
		}
		if p == service.Hedged {
			// Let the park calls' own hedges (which answer them) fire.
			time.Sleep(3 * floor)
		}
		for comp := 0; comp < n; comp++ { // and everything but the parked work drain
			comp := comp
			waitFor(t, r, fmt.Sprintf("component %d's queue drained", comp),
				func() bool { return comp == sc.saturate || r.depth(comp) == 0 })
		}
	}
	before := r.stats()
	ctx, cancel := context.WithTimeout(context.Background(), sc.deadline)
	defer cancel()
	start := time.Now()
	subs, err := r.call(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range sc.quick {
		if elapsed := time.Since(start); q == p && elapsed >= slow {
			t.Errorf("call took %v, want well under %v", elapsed, slow)
		}
	}
	after := r.stats()
	d := decisions{
		Hedges: after.Hedges - before.Hedges, Retries: after.Retries - before.Retries, Faults: after.Faults - before.Faults,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, sr := range subs {
		as := "answered"
		switch {
		case sr.Skipped:
			as = "skipped"
		case errors.Is(sr.Err, service.ErrQueueFull):
			as = "shed"
		case sr.Err != nil:
			as = "failed"
		}
		d.Subs[i] = outcome{Arrivals: s.arrivals[i], Hedged: sr.Hedged, As: as}
	}
	return d
}

// waitFor polls cond for up to 5 s. On a timeout it names what it
// waited for and the per-component queue depths it last saw, so a run
// that never got there says which queue did not drain.
func waitFor(t *testing.T, r rig, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			var depths [n]int
			for i := range depths {
				depths[i] = r.depth(i)
			}
			t.Fatalf("%s: not reached in 5s; queue depths per component %v", what, depths)
		}
	}
}

func payloadOf(park bool) string {
	if park {
		return "park"
	}
	return "run"
}

func fakeRig(t *testing.T, p service.Policy, s *script, cap, budget int) rig {
	ft := &fakeTransport{s: s, cap: cap, out: make([]int, n)}
	g := service.NewGather(ft, service.GatherConfig{
		N: n, Policy: p, HedgeFloor: floor, RetryBudget: budget,
		Prefix: "fake", Label: func(i int) string { return fmt.Sprintf(`c="%d"`, i) },
	})
	t.Cleanup(g.Close)
	return rig{
		call: func(ctx context.Context, park bool) ([]service.SubResult, error) {
			return g.Call(ctx, payloadOf(park))
		},
		setRouter: g.SetRouter, depth: ft.QueueDepth, stats: g.Stats, parked: 1,
	}
}

func clusterRig(t *testing.T, p service.Policy, s *script, cap int) rig {
	handlers := make([]service.Handler, n)
	for i := range handlers {
		subset := i
		handlers[i] = func(ctx context.Context, payload interface{}) (interface{}, error) {
			comp, _ := service.ComponentFrom(ctx)
			if s.run(payload == "park", subset, comp) {
				return nil, errors.New("scripted peer failure")
			}
			return "ok", nil
		}
	}
	cl, err := service.New(handlers, p, service.Options{QueueLen: cap, HedgeFloor: floor})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return rig{
		call: func(ctx context.Context, park bool) ([]service.SubResult, error) {
			return cl.Call(ctx, payloadOf(park))
		},
		setRouter: cl.SetRouter, depth: cl.QueueDepth, stats: cl.Stats,
		parked: 2, // one job held by the worker, one (cap) in the mailbox
	}
}

func aggregatorRig(t *testing.T, p service.Policy, s *script, cap int) rig {
	// The dial seam records the aggregator-side connections per peer, so
	// a scripted peer failure can cut the wire under an in-flight request.
	var mu sync.Mutex
	conns := map[string][]net.Conn{}
	var addrs []string // the servers' addresses, set (under mu) once the rig is up
	lb, err := netsvc.StartLoopback(netsvc.LoopbackSpec{
		Components: n,
		Handler: func(comp int) netsvc.Handler {
			return func(ctx context.Context, req *wire.Request) *wire.SubReply {
				if s.run(req.Tenant == "park", int(req.Subset), comp) {
					mu.Lock()
					for _, c := range conns[addrs[comp]] {
						c.Close()
					}
					mu.Unlock()
				}
				return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
					Agg: &wire.AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0}, CntVar: []float64{0}}}
			}
		},
		Agg: netsvc.AggregatorOptions{
			Policy: p, HedgeFloor: floor, MaxOutstanding: cap,
			Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, timeout)
				if err == nil {
					mu.Lock()
					conns[addr] = append(conns[addr], c)
					mu.Unlock()
				}
				return c, err
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	mu.Lock()
	addrs = lb.Addrs
	mu.Unlock()
	a := lb.Agg
	return rig{
		call: func(ctx context.Context, park bool) ([]service.SubResult, error) {
			req := &wire.Request{Kind: wire.KindAgg, Subset: -1, SLO: wire.SLONone, Level: wire.NoLevel,
				Agg: &wire.AggRequest{Hi: 1}}
			if park {
				req.Tenant = "park"
			}
			return a.Call(ctx, req)
		},
		setRouter: a.SetRouter, depth: a.QueueDepth, stats: func() service.Stats { return a.Stats().Stats }, parked: 1,
	}
}
