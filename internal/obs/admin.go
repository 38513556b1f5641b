package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Admin is the serving stack's HTTP admin plane. It exposes:
//
//	/metrics        Prometheus text exposition of the registry
//	/healthz        200 "ok" when ready, 200 "degraded" + the open
//	                breakers when serving around failed components,
//	                503 "draining" when not ready
//	/traces?n=K     the K most recent finished traces as JSON;
//	                ?class=Bounded (or 0/1/2), ?tenant=acme, ?min_ms=5,
//	                and ?filter=anomaly narrow the answer —
//	                filter=anomaly serves the pinned exemplar store
//	                instead of the ring
//	/slo            sliding-window SLO burn rates
//	/audit          the ground-truth auditor's calibration report
//	/costs          the per-tenant cost attribution table
//	/frontier       the accuracy-vs-cost frontier per workload
//	/debug/profiles the anomaly-triggered profile ring: a JSON listing,
//	                or ?seq=N&kind=cpu|heap to download one capture
//	/debug/pprof/*  the standard runtime profiles
//
// Its sources (AdminSources) are fixed at construction. Readiness is
// the one runtime state: it starts true and is flipped by SetReady —
// graceful shutdown flips it false first so load balancers stop
// routing before the listeners close. Degraded is deliberately still a
// 200: the process keeps answering (rerouted, possibly at degraded
// accuracy), so load balancers must not evict it — but operators and
// probes can see which failure domains are open.
type Admin struct {
	src   AdminSources
	ready atomic.Bool
	srv   *http.Server
	ln    net.Listener
}

// AdminSources are the planes an admin plane serves. Any may be nil:
// /metrics then serves an empty exposition, /traces an empty list,
// /healthz plain "ok", /slo an empty view, and /audit, /costs,
// /frontier and /debug/profiles 404.
type AdminSources struct {
	Registry *Registry // /metrics
	Traces   *Recorder // /traces
	// OpenBreakers is the degradation probe behind /healthz: the
	// identifiers (peer addresses, component indices) whose circuit
	// breakers are open. A non-empty answer turns /healthz into 200
	// "degraded" listing them.
	OpenBreakers func() []string
	SLO          *SLOTracker // /slo
	// Audit, Costs and Frontier return the JSON-encodable documents
	// behind /audit, /costs and /frontier (typically audit.Report, a
	// cost.Table snapshot and its cost.Frontier join with the audit
	// tables; obs imports neither package, so the coupling stays this
	// loose).
	Audit, Costs, Frontier func() any
	Profiler               *Profiler // /debug/profiles
}

// NewAdmin returns a ready admin plane over src.
func NewAdmin(src AdminSources) *Admin {
	a := &Admin{src: src}
	a.ready.Store(true)
	return a
}

// SetReady flips the /healthz readiness answer.
func (a *Admin) SetReady(ready bool) { a.ready.Store(ready) }

// Handler returns the admin mux.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/traces", a.handleTraces)
	mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, a.src.SLO.Snapshot()) })
	mux.HandleFunc("/audit", func(w http.ResponseWriter, _ *http.Request) { serveDoc(w, "audit", a.src.Audit) })
	mux.HandleFunc("/costs", func(w http.ResponseWriter, _ *http.Request) { serveDoc(w, "cost", a.src.Costs) })
	mux.HandleFunc("/frontier", func(w http.ResponseWriter, _ *http.Request) { serveDoc(w, "frontier", a.src.Frontier) })
	mux.HandleFunc("/debug/profiles", a.handleProfiles)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if a.src.Registry != nil {
		a.src.Registry.WritePrometheus(w)
	}
}

func (a *Admin) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !a.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if src := a.src.OpenBreakers; src != nil {
		if open := src(); len(open) > 0 {
			fmt.Fprintln(w, "degraded")
			for _, b := range open {
				fmt.Fprintf(w, "open-breaker %s\n", b)
			}
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

// parseClass maps a ?class= value — an SLO label ("Exact", "Bounded",
// "BestEffort", case-insensitive) or its numeric code — to the class
// byte. ok is false for anything else.
func parseClass(s string) (uint8, bool) {
	for c := uint8(0); c < 3; c++ {
		if strings.EqualFold(s, ClassLabel(c)) {
			return c, true
		}
	}
	if v, err := strconv.Atoi(s); err == nil && v >= 0 && v <= 2 {
		return uint8(v), true
	}
	return 0, false
}

func (a *Admin) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := 32
	if s := q.Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			http.Error(w, "obs: bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	hasClass := false
	var class uint8
	if s := q.Get("class"); s != "" {
		c, ok := parseClass(s)
		if !ok {
			http.Error(w, "obs: bad class", http.StatusBadRequest)
			return
		}
		hasClass, class = true, c
	}
	minDur := time.Duration(0)
	if s := q.Get("min_ms"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 {
			http.Error(w, "obs: bad min_ms", http.StatusBadRequest)
			return
		}
		minDur = time.Duration(v * float64(time.Millisecond))
	}
	tenant := q.Get("tenant")
	var views []TraceView
	switch q.Get("filter") {
	case "":
		views = a.src.Traces.Snapshot(n)
	case "anomaly":
		views = a.src.Traces.Exemplars(n)
	default:
		http.Error(w, "obs: bad filter (want anomaly)", http.StatusBadRequest)
		return
	}
	if hasClass || minDur > 0 || tenant != "" {
		kept := views[:0]
		for _, v := range views {
			if hasClass && v.SLO != class {
				continue
			}
			if minDur > 0 && time.Duration(v.DurNs) < minDur {
				continue
			}
			if tenant != "" && v.Tenant != tenant {
				continue
			}
			kept = append(kept, v)
		}
		views = kept
	}
	if views == nil {
		views = []TraceView{}
	}
	writeJSON(w, struct {
		Traces []TraceView `json:"traces"`
	}{views})
}

// serveDoc answers with src's document, or 404 naming the plane when
// the deployment runs without it.
func serveDoc(w http.ResponseWriter, plane string, src func() any) {
	if src == nil {
		http.Error(w, "obs: no "+plane+" source configured", http.StatusNotFound)
		return
	}
	writeJSON(w, src())
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleProfiles serves the anomaly-triggered profile ring: the JSON
// listing by default, or one capture's raw pprof bytes with
// ?seq=N&kind=cpu|heap.
func (a *Admin) handleProfiles(w http.ResponseWriter, r *http.Request) {
	p := a.src.Profiler
	if p == nil {
		http.Error(w, "obs: no profiler configured", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	if s := q.Get("seq"); s != "" {
		seq, err := strconv.Atoi(s)
		if err != nil {
			http.Error(w, "obs: bad seq", http.StatusBadRequest)
			return
		}
		c, ok := p.Get(seq)
		if !ok {
			http.Error(w, "obs: no such profile (evicted?)", http.StatusNotFound)
			return
		}
		var data []byte
		switch q.Get("kind") {
		case "cpu":
			data = c.CPU
		case "heap":
			data = c.Heap
		default:
			http.Error(w, "obs: bad kind (want cpu or heap)", http.StatusBadRequest)
			return
		}
		if len(data) == 0 {
			http.Error(w, "obs: capture has no such profile", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
		return
	}
	writeJSON(w, p.Snapshot())
}

// Listen binds the admin plane to addr and serves it on a background
// goroutine. It returns the bound address (useful with ":0").
func (a *Admin) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen: %w", err)
	}
	a.ln = ln
	a.srv = &http.Server{Handler: a.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go a.srv.Serve(ln)
	return ln.Addr(), nil
}

// Close shuts the admin listener down, waiting briefly for in-flight
// scrapes.
func (a *Admin) Close() error {
	if a.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return a.srv.Shutdown(ctx)
}
