// Observability: watching the accuracy/latency trade happen, request
// by request.
//
// The same one-process topology as examples/distributed — component
// servers, aggregator, accuracy-aware frontend, front server — plus
// the observability plane: the frontend's counters land in a unified
// metrics registry, every request records a decision trace (admission
// verdict, chosen ladder level, cache outcome, per-subset sub-operation
// spans with the component servers' queue/exec spans stitched in over
// the wire), and an admin HTTP endpoint serves both live
// (/metrics, /traces, /healthz, /debug/pprof).
//
// On top of that sits the accuracy audit plane: an SLO tracker
// accumulates deadline-miss/degradation/floor burn rates over sliding
// windows (/slo), and a background auditor replays a sample of
// answered requests at the Exact level off the hot path, comparing
// each claimed accuracy against ground truth (/audit). Traces the
// audit flags as anomalous are pinned into the recorder's exemplar
// store, so /traces?filter=anomaly still shows them after the ring
// has rotated past.
//
// After driving a burst of traffic under all three SLO classes, the
// program scrapes its own admin plane, prints the per-SLO-class
// deadline-budget breakdown and the audit calibration table, and
// drains gracefully.
//
// Run with: go run ./examples/observability
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	at "accuracytrader"
	"accuracytrader/internal/stats"
)

const (
	shards = 3
	rows   = 2000
	keys   = 8
	seed   = 9
)

func main() {
	// Offline: build each shard's stratified-sample synopsis ladder.
	rng := stats.NewRNG(seed)
	comps := make([]*at.AggComponent, shards)
	for s := range comps {
		tab := at.NewFactTable(keys)
		for i := 0; i < rows; i++ {
			tab.Append(int32(rng.Intn(keys)), rng.LogNormal(1.2, 0.8))
		}
		c, err := at.BuildAggComponent(tab, at.AggConfig{
			Rates: []float64{0.1, 0.3}, MinSample: 8, Seed: seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		comps[s] = c
	}

	// Component servers on loopback, one per shard.
	addrs := make([]string, shards)
	for s := 0; s < shards; s++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := at.NewNetComponentServer(at.NewNetAggBackend(comps, at.NetBackendOptions{
			UnitCost: 5 * time.Microsecond,
			// Cap Algorithm 1's improvement phase so coarse levels stay
			// genuinely approximate — otherwise an unloaded backend
			// improves every sampled stratum to a full scan and the
			// audit has nothing to catch.
			IMaxFrac: 0.01,
		}), at.NetServerOptions{})
		go srv.Serve(l)
		defer srv.Close()
		addrs[s] = l.Addr().String()
	}

	// The observability plane: metrics registry + trace recorder,
	// served (with the audit planes below) by the admin HTTP endpoint.
	reg := at.NewMetricsRegistry()
	rec := at.NewTraceRecorder(128, 64)

	// Aggregator + frontend (counting into reg) + traced front server.
	agr, err := at.NewNetAggregator(addrs, at.NetAggregatorOptions{Deadline: 200 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer agr.Close()
	// The fine level's claimed accuracy is deliberately optimistic
	// (think: a calibration table gone stale after data drift). The
	// controller will happily admit accuracy floors the level cannot
	// actually meet — exactly the failure the audit plane exists to
	// catch.
	ctrl, err := at.NewDegradationController(at.DegradationConfig{
		Levels:        2,
		LevelAccuracy: []float64{0.88, 0.99},
	})
	if err != nil {
		log.Fatal(err)
	}
	fe, err := at.NewFrontend(agr, at.FrontendOptions{
		Replicas:   2,
		Router:     at.NewLeastLoaded(),
		Admission:  []at.AdmissionPolicy{at.NewMaxInflight(4 * shards)},
		Controller: ctrl,
		Metrics:    reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	// The accuracy audit plane. The SLO tracker counts every reply into
	// sliding burn-rate windows; the auditor replays a sample of
	// answered requests at the Exact level in the background (sampling
	// is cranked to 100% with a fast pace here so a short demo audits
	// everything — production deployments keep the 5% default).
	slo := at.NewSLOTracker(at.DefaultSLOBudgets())
	fs, err := at.NewNetFrontServer(agr, fe, at.NetServerOptions{Tracer: rec, SLO: slo, Audit: &at.AuditConfig{
		SampleFraction: 1.0,
		Interval:       200 * time.Microsecond,
		Metrics:        reg,
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close() // and its auditor
	auditor := fs.Auditor()

	// The admin plane, built from the planes it serves.
	admin := at.NewAdminPlane(at.AdminSources{
		Registry: reg,
		Traces:   rec,
		SLO:      slo,
		Audit: func() any {
			return at.AuditReport{Stats: auditor.Stats(), Tables: auditor.Tables()}
		},
	})
	adminAddr, err := admin.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	go fs.Serve(fl)

	// A burst of traffic across the three SLO classes. The first
	// request stamps its own trace ID — the reply echoes it, so a
	// client can find its exact decision trace in /traces.
	cl, err := at.DialNetClient(fl.Addr().String(), at.NetClientOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		req := &at.WireRequest{
			Kind: at.WireKindAgg, Level: -1,
			Agg: &at.WireAggRequest{Op: 0, Lo: 1.0, Hi: 40.0 + float64(i%5)},
		}
		switch i % 3 {
		case 0:
			req.SLO, req.MinAccuracy = 1, 0.9 // Bounded{0.90}
		case 1:
			req.SLO = 2 // BestEffort
		}
		if req.SLO != 0 {
			req.Deadline = time.Now().Add(30 * time.Millisecond).UnixNano()
		}
		if i == 0 {
			req.Trace = 0xfacade
		}
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		rep, err := cl.Call(ctx, req)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 && rep.Trace != 0xfacade {
			log.Fatalf("reply echoes trace %#x, want the stamped 0xfacade", rep.Trace)
		}
	}

	// Four requests with a 0.97 accuracy floor. The stale calibration
	// claims 0.99 at the fine level, so the controller admits them —
	// but the level's realized accuracy is lower, and the auditor's
	// Exact-level replays will flag every one as a floor violation and
	// pin its trace.
	for i := 0; i < 4; i++ {
		req := &at.WireRequest{
			Kind: at.WireKindAgg, Level: -1, SLO: 1, MinAccuracy: 0.97,
			Deadline: time.Now().Add(30 * time.Millisecond).UnixNano(),
			Agg:      &at.WireAggRequest{Op: 0, Lo: 1.0, Hi: 40.0 + float64(i)},
		}
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		_, err := cl.Call(ctx, req)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
	}
	cl.Close()

	// Let the background auditor finish replaying the sampled requests
	// before reading its calibration tables.
	if !auditor.Drain(5 * time.Second) {
		log.Fatal("auditor did not drain")
	}

	// Scrape the admin plane like a monitoring system would.
	fmt.Printf("admin plane on http://%s\n\n", adminAddr)
	fmt.Println("GET /metrics (frontend counters, excerpt):")
	for _, line := range strings.Split(scrape(adminAddr, "/metrics"), "\n") {
		if strings.HasPrefix(line, "frontend_") && !strings.HasPrefix(line, "#") {
			fmt.Println(" ", line)
		}
	}
	fmt.Println("\nGET /healthz:", strings.TrimSpace(scrape(adminAddr, "/healthz")))

	// The audit verdict: per-workload/per-level calibration rows —
	// claimed vs realized accuracy over the replayed sample — plus the
	// auditor's own accounting.
	st := auditor.Stats()
	fmt.Printf("\nGET /audit: sampled=%d audited=%d stale=%d errs=%d dropped=%d\n",
		st.Sampled, st.Audited, st.SkippedStale, st.ReplayErrs, st.Dropped)
	for _, tab := range auditor.Tables() {
		fmt.Printf("  %s level %d: samples=%d claimed=%.4f realized=%.4f floorViol=%d\n",
			tab.Workload, tab.Level, tab.Samples, tab.MeanClaimed, tab.MeanRealized, tab.FloorViolations)
	}

	// The SLO attainment the tracker accumulated while the burst ran
	// (class 1 = Bounded — the class carrying accuracy floors). The
	// admin plane serves the same document as JSON at /slo.
	fmt.Printf("GET /slo: %d bytes of burn-rate JSON; Bounded-class windows:\n",
		len(scrape(adminAddr, "/slo")))
	for i, w := range []string{"1m", "10m", "1h"} {
		total, miss, floor, deg := slo.Window(1, i)
		fmt.Printf("  %-3s total=%d deadlineMiss=%d floorViolations=%d degraded=%d\n",
			w, total, miss, floor, deg)
	}

	// Anomalous traces survive ring rotation: the audit pinned every
	// floor-violating trace into the exemplar store.
	anomalies := strings.Count(scrape(adminAddr, "/traces?filter=anomaly"), "\"start_unix_ns\"")
	fmt.Printf("GET /traces?filter=anomaly: %d retained anomalous traces\n", anomalies)

	// The per-SLO-class deadline-budget breakdown over every recorded
	// trace — where each class's latency budget actually went. The
	// Exact row includes the auditor's own ground-truth replays: they
	// are ordinary requests, just issued off the hot path.
	fmt.Println()
	fmt.Println(at.SummarizeTraces(rec.Snapshot(0)).Render())

	// Graceful drain: unready first (load balancers stop sending), then
	// stop accepting and finish what is queued or in flight.
	admin.SetReady(false)
	fmt.Printf("\ndrained=%v  healthz now: %s\n",
		fs.Shutdown(5*time.Second), strings.TrimSpace(scrape(adminAddr, "/healthz")))
}

// scrape GETs one admin-plane path and returns the body.
func scrape(addr net.Addr, path string) string {
	resp, err := http.Get("http://" + addr.String() + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}
