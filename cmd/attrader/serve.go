package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"accuracytrader/internal/audit"
	"accuracytrader/internal/breaker"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/experiments"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/service"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/wire"
	"accuracytrader/internal/workload"
)

// drainTimeout bounds the graceful drain on SIGINT/SIGTERM: queued and
// in-flight requests get this long to finish before the hard close.
const drainTimeout = 10 * time.Second

// startAdmin stands up the admin plane over src when an address was
// given. Returns nil when addr is empty — every call site is nil-safe.
func startAdmin(addr string, src obs.AdminSources) (*obs.Admin, error) {
	if addr == "" {
		return nil, nil
	}
	ad := obs.NewAdmin(src)
	got, err := ad.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("admin plane: %w", err)
	}
	fmt.Printf("admin plane on http://%s (/metrics /healthz /traces /slo /audit /costs /frontier /debug/pprof /debug/profiles)\n", got)
	return ad, nil
}

// netService is one workload prepared for network serving: the
// component handler over the deterministically built shards, plus
// request templates for probing and load.
type netService struct {
	workload  string
	shards    int
	handler   netsvc.Handler
	templates []*wire.Request
	// levelAcc is the measured per-ladder-level accuracy (aggregation
	// workload only) used to calibrate the front server's controller.
	levelAcc []float64
	// ingest, when non-nil, makes component servers accept v5 append
	// batches (agglive workload) and front servers forward them.
	ingest netsvc.IngestHandler
}

// buildNetService constructs the workload's shards from the scale —
// deterministic, so separate processes started with the same flags
// serve consistent data.
func buildNetService(workload string, sc experiments.Scale) (*netService, error) {
	ns := &netService{workload: workload, shards: sc.Shards}
	switch workload {
	case "agg", "agglive":
		svc, err := experiments.BuildAggService(sc)
		if err != nil {
			return nil, err
		}
		ns.handler = netsvc.NewAggBackend(svc.Comps, netsvc.BackendOptions{})
		if workload == "agglive" {
			// The same deterministic fact shards, served from live
			// epoch-swapped stores: the initial rows are staged and compacted
			// into each shard's base synopsis, a process-lifetime merge worker
			// publishes later appends as fresh epochs and periodically folds
			// them into the base, and the server accepts v5 append batches.
			lives := make([]*ingest.AggLive, len(svc.Data.Subsets))
			for i, tab := range svc.Data.Subsets {
				if lives[i], err = experiments.StageAggLive(tab, sc.AggConfig()); err != nil {
					return nil, err
				}
				ingest.NewWorker(lives[i], ingest.WorkerOptions{Interval: 5 * time.Millisecond, CompactEvery: 64})
			}
			ns.handler = netsvc.NewLiveAggBackend(lives, netsvc.BackendOptions{})
			ns.ingest = netsvc.NewLiveIngestHandler(netsvc.LiveStores{Agg: lives})
		}
		queries := svc.Data.SampleAggQueries(sc.Seed^0x51, 16)
		for _, q := range queries {
			ns.templates = append(ns.templates, experiments.AggRequest(q))
		}
		ns.levelAcc = experiments.LadderAccuracy(svc.Comps, queries)
	case "cf":
		svc, err := experiments.BuildCFService(sc)
		if err != nil {
			return nil, err
		}
		ns.handler = netsvc.NewCFBackend(svc.Comps, netsvc.BackendOptions{})
		for _, r := range svc.Data.SampleCFRequests(sc.Seed^0x52, 16, 0.2) {
			ns.templates = append(ns.templates, experiments.CFRequest(r))
		}
	case "search":
		svc, err := experiments.BuildSearchService(sc)
		if err != nil {
			return nil, err
		}
		ns.handler = netsvc.NewSearchBackend(svc.Comps, netsvc.BackendOptions{})
		for _, q := range svc.Data.SampleQueries(sc.Seed^0x53, 16) {
			ns.templates = append(ns.templates, experiments.SearchRequest(q, 10))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (agg|agglive|cf|search)", workload)
	}
	return ns, nil
}

// runServe dispatches the -serve role.
func runServe(role, workload, listen, peers, admin, tenant string, rate float64, sc experiments.Scale) error {
	switch role {
	case "component":
		return serveComponent(workload, listen, admin, sc)
	case "aggregator":
		return serveAggregator(workload, listen, peers, admin, tenant, rate, sc)
	case "client":
		return serveClient(workload, peers, tenant, rate, sc)
	default:
		return fmt.Errorf("unknown -serve role %q (component|aggregator|client)", role)
	}
}

// serveComponent builds the workload and answers sub-operations on
// listen until interrupted; SIGINT/SIGTERM drains gracefully.
func serveComponent(workload, listen, admin string, sc experiments.Scale) error {
	if listen == "" {
		return fmt.Errorf("-serve component requires -listen")
	}
	ns, err := buildNetService(workload, sc)
	if err != nil {
		return err
	}
	ad, err := startAdmin(admin, obs.AdminSources{Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	srv := netsvc.NewServer(ns.handler, netsvc.ServerOptions{Workers: 2, QueueLen: 1024})
	if ns.ingest != nil {
		srv.SetIngest(ns.ingest)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(listen) }()
	fmt.Printf("component server: workload=%s shards=%d listening on %s\n", workload, ns.shards, listen)
	select {
	case err := <-errCh:
		return err
	case <-interrupted():
		// Graceful: flip /healthz unready, stop accepting, drain queued
		// and in-flight requests, then close.
		if ad != nil {
			ad.SetReady(false)
		}
		drained := srv.Shutdown(drainTimeout)
		st := srv.Stats()
		fmt.Printf("component server: served %d requests (%d abandoned past deadline, %d shed busy, drained=%v)\n",
			st.Requests, st.Abandoned, st.Shed, drained)
		if ad != nil {
			ad.Close()
		}
		return nil
	}
}

// serveAggregator connects to the component peers, verifies one
// round-trip, then either serves composed replies on listen (until
// interrupted) or drives an open-loop measurement session and exits.
func serveAggregator(workload, listen, peers, admin, tenant string, rate float64, sc experiments.Scale) error {
	addrs := strings.Split(peers, ",")
	if peers == "" || len(addrs) == 0 {
		return fmt.Errorf("-serve aggregator requires -peers host:port[,host:port...]")
	}
	ns, err := buildNetService(workload, sc)
	if err != nil {
		return err
	}
	// The admin plane also switches on request tracing, the unified
	// metrics registry, and anomaly-triggered profiling: frontend and
	// breaker counters land in /metrics, every request gets a decision
	// trace served at /traces, and a breaker trip or SLO burn captures
	// a bounded pprof profile into the /debug/profiles ring.
	var reg *obs.Registry
	var rec *obs.Recorder
	var prof *obs.Profiler
	if admin != "" {
		reg = obs.NewRegistry()
		rec = obs.NewRecorder(512, 64)
		prof = obs.NewProfiler(0, 0, 0)
	}
	aopts := netsvc.AggregatorOptions{
		Policy:   service.WaitAll,
		Deadline: 2 * time.Second,
		Metrics:  reg,
	}
	if prof != nil {
		p := prof
		aopts.Breaker.OnStateChange = func(s breaker.State) {
			if s == breaker.Open {
				p.Trigger("breaker-open")
			}
		}
	}
	agr, err := netsvc.NewAggregator(addrs, aopts)
	if err != nil {
		return err
	}
	defer agr.Close()
	if err := agr.WaitReady(15 * time.Second); err != nil {
		return err
	}

	// Probe: one whole-service round-trip must answer every subset.
	probeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	subs, err := agr.Call(probeCtx, ns.templates[0])
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	for _, sr := range subs {
		if sr.Err != nil || sr.Skipped {
			return fmt.Errorf("probe: subset %d unanswered: err=%v skipped=%v", sr.Subset, sr.Err, sr.Skipped)
		}
	}
	fmt.Printf("aggregator: %d components answered the %s probe\n", len(subs), workload)

	if listen != "" {
		return serveFront(ns, agr, listen, admin, reg, rec, prof)
	}
	err = offerLoad("aggregator measurement", ns, tenant, rate, sc.SessionSeconds, func(req *wire.Request) bool {
		subs, err := agr.Call(context.Background(), req)
		for _, sr := range subs {
			if sr.Err != nil {
				return false
			}
		}
		return err == nil
	})
	st := agr.Stats()
	fmt.Printf("  sub-ops %d  reconnects %d\n", st.SubOps, st.Reconnects)
	return err
}

// serveFront runs the client-facing composed-reply server, whose
// frontend gets the standard admission and degradation policies when
// the workload has a calibrated ladder.
func serveFront(ns *netService, agr *netsvc.Aggregator, listen, admin string, reg *obs.Registry, rec *obs.Recorder, prof *obs.Profiler) error {
	var fe *frontend.Frontend
	if len(ns.levelAcc) > 0 {
		var err error
		fe, err = experiments.StandardFrontend(agr, 4*agr.Components(), ns.levelAcc, reg)
		if err != nil {
			return err
		}
	}
	// The front server forwards append batches to their owning
	// component. /healthz answers 200 "degraded" (still routable —
	// requests are served around the failure) whenever any peer breaker
	// is open.
	opts := netsvc.ServerOptions{Tracer: rec}
	src := obs.AdminSources{Registry: reg, Traces: rec, OpenBreakers: agr.OpenBreakers, Profiler: prof}
	if admin != "" {
		// The admin plane also switches on SLO attainment tracking, the
		// ground-truth auditor and cost attribution: burn rates land in
		// /metrics and /slo, audit calibration tables in /audit, and
		// audit-flagged traces are pinned as exemplars at
		// /traces?filter=anomaly. Every answered request is metered into
		// a per-(tenant, class, workload, level) table served at /costs
		// and exported as cost_* metrics; joined with the auditor's
		// realized accuracy it becomes the live accuracy-vs-cost frontier
		// at /frontier.
		opts.SLO = obs.NewSLOTracker(obs.DefaultSLOBudgets())
		opts.SLO.RegisterMetrics(reg)
		opts.Audit = &audit.Config{Metrics: reg}
		opts.Costs = cost.NewTable()
		opts.Costs.RegisterMetrics(reg)
	}
	fs, err := netsvc.NewFront(agr, fe, opts)
	if err != nil {
		return err
	}
	defer fs.Close() // and its auditor; a no-op after the drain
	if admin != "" {
		auditor, costs := fs.Auditor(), opts.Costs
		src.SLO = opts.SLO
		src.Audit = func() any {
			return audit.Report{Stats: auditor.Stats(), Tables: auditor.Tables()}
		}
		src.Costs = func() any { return costs.Snapshot() }
		src.Frontier = func() any {
			var pts []cost.AccuracyPoint
			for _, tv := range auditor.Tables() {
				pts = append(pts, cost.AccuracyPoint{
					Workload: tv.Workload, Level: tv.Level,
					Accuracy: tv.MeanRealized, Samples: tv.Samples,
				})
			}
			return cost.Frontier(costs.Snapshot(), pts)
		}
		// Anomaly trigger #2 (breaker trips are wired at aggregator
		// construction): capture a profile when any class burns its
		// error budget faster than allowed.
		stopWatch := prof.WatchBurn(opts.SLO, 5*time.Second)
		defer stopWatch()
	}
	ad, err := startAdmin(admin, src)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() { errCh <- fs.ListenAndServe(listen) }()
	fmt.Printf("aggregator: serving composed replies on %s (frontend: %v, tracing: %v)\n", listen, fe != nil, rec != nil)
	select {
	case err := <-errCh:
		return err
	case <-interrupted():
		if ad != nil {
			ad.SetReady(false)
		}
		drained := fs.Shutdown(drainTimeout)
		fmt.Printf("aggregator: drained=%v\n", drained)
		if rec != nil {
			if sum := obs.Summarize(rec.Snapshot(0)); sum.Traces > 0 {
				fmt.Println(sum.Render())
			}
		}
		if ad != nil {
			ad.Close()
		}
		return nil
	}
}

// serveClient dials a front server and drives open-loop, tenant-tagged
// load at it for the session window — the load-generator role used to
// exercise the full serving path (and the cost plane behind it) from a
// separate process. peers names the front server's address.
func serveClient(workload, peers, tenant string, rate float64, sc experiments.Scale) error {
	if peers == "" || strings.Contains(peers, ",") {
		return fmt.Errorf("-serve client requires -peers with exactly one front-server address")
	}
	// Built only for its deterministic request templates (and the ladder
	// presence check): the same flags the servers started with yield the
	// same queries here.
	ns, err := buildNetService(workload, sc)
	if err != nil {
		return err
	}
	cl, err := netsvc.DialClient(peers, netsvc.ClientOptions{})
	if err != nil {
		return err
	}
	defer cl.Close()
	// Workloads with a calibrated ladder get an accuracy SLO on every
	// request — the frontend picks the ladder level, so the cost table
	// and frontier see the accuracy-trading path, not just best-effort.
	bounded := len(ns.levelAcc) > 0
	return offerLoad("client", ns, tenant, rate, sc.SessionSeconds, func(req *wire.Request) bool {
		if bounded {
			req.SLO, req.MinAccuracy = wire.SLOBounded, 0.9
		}
		rep, err := cl.Call(context.Background(), req)
		return err == nil && rep.Status == wire.ReplyOK
	})
}

// offerLoad drives the session's open-loop Poisson schedule of
// tenant-tagged requests through call (which reports whether the request
// was answered) and prints the latency report, timed from each arrival's
// intended send instant. who names the role in the report.
func offerLoad(who string, ns *netService, tenant string, rate, seconds float64, call func(*wire.Request) bool) error {
	arrivals := workload.PoissonArrivals(stats.NewRNG(0x5e55), rate, seconds*1000)
	var mu sync.Mutex
	lat := stats.NewLatencyRecorder(2048)
	lag := netsvc.OpenLoop(arrivals, func(r int, intended time.Time) {
		req := *ns.templates[r%len(ns.templates)]
		req.ID = uint64(r)
		req.Tenant = tenant
		if !call(&req) {
			return
		}
		d := float64(time.Since(intended)) / float64(time.Millisecond)
		mu.Lock()
		lat.Record(d)
		mu.Unlock()
	})
	fmt.Printf("%s: %d requests over %.1fs (nominal %.0f req/s, realised %.1f; tenant=%q, max send lag %.1fms)\n",
		who, len(arrivals), seconds, rate, float64(len(arrivals))/seconds, tenant, float64(lag)/float64(time.Millisecond))
	fmt.Printf("  answered %d (errors %d)  p50 %.1fms  p99 %.1fms\n",
		lat.Count(), len(arrivals)-lat.Count(), lat.Percentile(50), lat.Percentile(99))
	if lat.Count() == 0 {
		return fmt.Errorf("no requests answered")
	}
	return nil
}

// interrupted returns a channel closed on SIGINT/SIGTERM.
func interrupted() <-chan os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return ch
}
