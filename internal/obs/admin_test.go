package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestAdmin(t *testing.T) (*Admin, *Registry, *Recorder) {
	t.Helper()
	reg := NewRegistry()
	rec := NewRecorder(8, 8)
	return NewAdmin(AdminSources{Registry: reg, Traces: rec}), reg, rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestAdminMetrics(t *testing.T) {
	a, reg, _ := newTestAdmin(t)
	reg.Counter("reqs_total").Add(5)
	w := get(t, a.Handler(), "/metrics")
	if w.Code != 200 {
		t.Fatalf("status = %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "reqs_total 5") {
		t.Fatalf("metrics body:\n%s", w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
}

func TestAdminHealthzFlips(t *testing.T) {
	a, _, _ := newTestAdmin(t)
	if w := get(t, a.Handler(), "/healthz"); w.Code != 200 || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("ready healthz: %d %q", w.Code, w.Body.String())
	}
	a.SetReady(false)
	if w := get(t, a.Handler(), "/healthz"); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("draining healthz: %d %q", w.Code, w.Body.String())
	}
}

// TestAdminHealthzThreeStates pins the health surface's distinction
// between healthy (200 ok), serving-around-failures (200 degraded,
// listing the open breakers so probes can see which domains are down
// without evicting the process) and draining (503).
func TestAdminHealthzThreeStates(t *testing.T) {
	var open []string
	a := NewAdmin(AdminSources{OpenBreakers: func() []string { return open }})

	if w := get(t, a.Handler(), "/healthz"); w.Code != 200 || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthy: %d %q", w.Code, w.Body.String())
	}

	open = []string{"127.0.0.1:9001", "127.0.0.1:9003"}
	w := get(t, a.Handler(), "/healthz")
	if w.Code != 200 {
		t.Fatalf("degraded must stay routable (200), got %d", w.Code)
	}
	body := w.Body.String()
	if !strings.Contains(body, "degraded") || strings.Contains(body, "ok\n") {
		t.Fatalf("degraded body: %q", body)
	}
	for _, b := range open {
		if !strings.Contains(body, "open-breaker "+b) {
			t.Fatalf("degraded body does not list %s: %q", b, body)
		}
	}

	// Draining wins over degraded: a stopping process must be evicted.
	a.SetReady(false)
	if w := get(t, a.Handler(), "/healthz"); w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("draining: %d %q", w.Code, w.Body.String())
	}

	// Healed: back to plain ok.
	a.SetReady(true)
	open = nil
	if w := get(t, a.Handler(), "/healthz"); w.Code != 200 || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healed: %d %q", w.Code, w.Body.String())
	}
}

func TestAdminTraces(t *testing.T) {
	a, _, rec := newTestAdmin(t)
	for i := 0; i < 3; i++ {
		tr := rec.Start(0, time.Now())
		tr.Add(SpanMerge, -1, time.Now(), time.Millisecond, 0)
		tr.Finish(2 * time.Millisecond)
	}
	w := get(t, a.Handler(), "/traces?n=2")
	if w.Code != 200 {
		t.Fatalf("status = %d", w.Code)
	}
	var body struct {
		Traces []TraceView `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body.String())
	}
	if len(body.Traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(body.Traces))
	}
	if len(body.Traces[0].Spans) != 1 {
		t.Fatalf("spans lost in JSON: %+v", body.Traces[0])
	}
	if w := get(t, a.Handler(), "/traces?n=bogus"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad n: status = %d", w.Code)
	}
}

func TestAdminTracesNilRecorder(t *testing.T) {
	a := NewAdmin(AdminSources{Registry: NewRegistry()})
	w := get(t, a.Handler(), "/traces")
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"traces": []`) {
		t.Fatalf("nil recorder: %d %q", w.Code, w.Body.String())
	}
}

func TestAdminPprofIndex(t *testing.T) {
	a, _, _ := newTestAdmin(t)
	w := get(t, a.Handler(), "/debug/pprof/")
	if w.Code != 200 || !strings.Contains(w.Body.String(), "goroutine") {
		t.Fatalf("pprof index: %d", w.Code)
	}
}

func TestAdminListenServesOverTCP(t *testing.T) {
	a, reg, _ := newTestAdmin(t)
	reg.Counter("live_total").Inc()
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "live_total 1") {
		t.Fatalf("scrape over TCP: %d %q", resp.StatusCode, body)
	}
}

func TestAdminTracesFilters(t *testing.T) {
	a, _, rec := newTestAdmin(t)
	// Two Bounded traces (one slow, one fast) and one BestEffort, plus an
	// anomalous degraded trace pinned into the exemplar store.
	slow := rec.Start(0, time.Now())
	slow.SetRequest(2, 1, 0.9, 0)
	slow.Finish(20 * time.Millisecond)
	fast := rec.Start(0, time.Now())
	fast.SetRequest(2, 1, 0.9, 0)
	fast.Finish(time.Millisecond)
	be := rec.Start(0, time.Now())
	be.SetRequest(2, 2, 0, 0)
	be.Finish(30 * time.Millisecond)
	bad := rec.Start(0, time.Now())
	bad.SetRequest(2, 1, 0.9, 0)
	bad.MarkAnomaly(AnomalyDegraded)
	bad.Finish(2 * time.Millisecond)

	decode := func(w *httptest.ResponseRecorder) []TraceView {
		t.Helper()
		if w.Code != 200 {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
		var body struct {
			Traces []TraceView `json:"traces"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		return body.Traces
	}

	// class filter: label and numeric forms agree.
	byLabel := decode(get(t, a.Handler(), "/traces?class=Bounded"))
	byCode := decode(get(t, a.Handler(), "/traces?class=1"))
	if len(byLabel) != 3 || len(byCode) != 3 {
		t.Fatalf("class filter: label=%d code=%d, want 3", len(byLabel), len(byCode))
	}
	for _, v := range byLabel {
		if v.SLO != 1 {
			t.Fatalf("class filter leaked SLO %d", v.SLO)
		}
	}
	// case-insensitive label.
	if got := decode(get(t, a.Handler(), "/traces?class=bounded")); len(got) != 3 {
		t.Fatalf("case-insensitive class: %d, want 3", len(got))
	}

	// min_ms filter.
	slowOnly := decode(get(t, a.Handler(), "/traces?min_ms=10"))
	if len(slowOnly) != 2 { // 20ms Bounded + 30ms BestEffort
		t.Fatalf("min_ms filter: %d traces, want 2", len(slowOnly))
	}
	// Combined: Bounded AND >= 10ms.
	combined := decode(get(t, a.Handler(), "/traces?class=Bounded&min_ms=10"))
	if len(combined) != 1 || combined[0].ID != slow.ID() {
		t.Fatalf("combined filter: %+v", combined)
	}

	// filter=anomaly serves the exemplar store only.
	anomalies := decode(get(t, a.Handler(), "/traces?filter=anomaly"))
	if len(anomalies) != 1 || anomalies[0].ID != bad.ID() {
		t.Fatalf("anomaly filter: %+v", anomalies)
	}
	if anomalies[0].AnomalyWhy[0] != "degraded" {
		t.Fatalf("anomaly labels lost in JSON: %+v", anomalies[0])
	}
	// Anomaly filter composes with class.
	if got := decode(get(t, a.Handler(), "/traces?filter=anomaly&class=BestEffort")); len(got) != 0 {
		t.Fatalf("anomaly+class filter leaked: %+v", got)
	}

	// Malformed parameters answer 400.
	for _, bad := range []string{
		"/traces?class=Gold",
		"/traces?class=7",
		"/traces?min_ms=fast",
		"/traces?min_ms=-1",
		"/traces?filter=slow",
	} {
		if w := get(t, a.Handler(), bad); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, w.Code)
		}
	}
}

func TestAdminSLOEndpoint(t *testing.T) {
	a, _, _ := newTestAdmin(t)
	// Without a tracker the endpoint still answers valid (empty) JSON.
	w := get(t, a.Handler(), "/slo")
	if w.Code != 200 {
		t.Fatalf("no-tracker /slo status = %d", w.Code)
	}
	var empty SLOView
	if err := json.Unmarshal(w.Body.Bytes(), &empty); err != nil {
		t.Fatalf("no-tracker /slo bad JSON: %v", err)
	}

	tr := NewSLOTracker(SLOBudgets{})
	now := time.Unix(1_700_000_000, 0)
	tr.now = func() time.Time { return now }
	tr.recordAt(now, 1, "acme", SLODeadlineMiss, true)
	a = NewAdmin(AdminSources{SLO: tr})
	w = get(t, a.Handler(), "/slo")
	if w.Code != 200 {
		t.Fatalf("/slo status = %d", w.Code)
	}
	var view SLOView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatalf("/slo bad JSON: %v\n%s", err, w.Body.String())
	}
	if len(view.Classes) != 3 {
		t.Fatalf("classes = %d, want 3", len(view.Classes))
	}
	if view.Classes[1].Windows[0].DeadlineMiss != 1 {
		t.Fatalf("Bounded 1m window: %+v", view.Classes[1].Windows[0])
	}
	if _, ok := view.Tenants["acme"]; !ok {
		t.Fatalf("tenant dimension missing: %+v", view.Tenants)
	}
}

func TestAdminTracesTenantFilter(t *testing.T) {
	a, _, rec := newTestAdmin(t)
	mk := func(tenant string, class uint8) *Trace {
		tr := rec.Start(2, time.Now())
		tr.SetRequest(2, class, 0.9, 0)
		tr.SetTenant(tenant)
		tr.Finish(time.Millisecond)
		return tr
	}
	acme := mk("acme", 1)
	mk("umbra", 1)
	mk("acme", 2)
	mk("", 1)

	decode := func(w *httptest.ResponseRecorder) []TraceView {
		t.Helper()
		if w.Code != 200 {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
		var body struct {
			Traces []TraceView `json:"traces"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		return body.Traces
	}

	got := decode(get(t, a.Handler(), "/traces?tenant=acme"))
	if len(got) != 2 {
		t.Fatalf("tenant filter: %d traces, want 2", len(got))
	}
	for _, v := range got {
		if v.Tenant != "acme" {
			t.Fatalf("tenant filter leaked %q", v.Tenant)
		}
	}
	// Composes with the class filter.
	combined := decode(get(t, a.Handler(), "/traces?tenant=acme&class=Bounded"))
	if len(combined) != 1 || combined[0].ID != acme.ID() {
		t.Fatalf("tenant+class filter: %+v", combined)
	}
	// Unknown tenants answer an empty (not error) list.
	if got := decode(get(t, a.Handler(), "/traces?tenant=nobody")); len(got) != 0 {
		t.Fatalf("unknown tenant leaked: %+v", got)
	}
	// Untagged traces stay reachable without the filter.
	if got := decode(get(t, a.Handler(), "/traces")); len(got) != 4 {
		t.Fatalf("unfiltered: %d traces, want 4", len(got))
	}
}

func TestAdminCostAndFrontierEndpoints(t *testing.T) {
	a, _, _ := newTestAdmin(t)
	for _, path := range []string{"/costs", "/frontier"} {
		if w := get(t, a.Handler(), path); w.Code != http.StatusNotFound {
			t.Fatalf("unconfigured %s status = %d, want 404", path, w.Code)
		}
	}
	a = NewAdmin(AdminSources{
		Costs:    func() any { return map[string]int{"requests": 12} },
		Frontier: func() any { return []map[string]any{{"workload": "agg"}} },
	})
	w := get(t, a.Handler(), "/costs")
	if w.Code != 200 {
		t.Fatalf("/costs status = %d", w.Code)
	}
	var costs map[string]int
	if err := json.Unmarshal(w.Body.Bytes(), &costs); err != nil || costs["requests"] != 12 {
		t.Fatalf("/costs body = %v (%v)", costs, err)
	}
	w = get(t, a.Handler(), "/frontier")
	if w.Code != 200 {
		t.Fatalf("/frontier status = %d", w.Code)
	}
	var curves []map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &curves); err != nil || len(curves) != 1 {
		t.Fatalf("/frontier body = %v (%v)", curves, err)
	}
}

func TestAdminProfilesEndpoint(t *testing.T) {
	a, _, _ := newTestAdmin(t)
	if w := get(t, a.Handler(), "/debug/profiles"); w.Code != http.StatusNotFound {
		t.Fatalf("unconfigured /debug/profiles status = %d, want 404", w.Code)
	}
	p := NewProfiler(4, time.Millisecond, time.Minute)
	a = NewAdmin(AdminSources{Profiler: p})
	w := get(t, a.Handler(), "/debug/profiles")
	if w.Code != 200 {
		t.Fatalf("empty listing status = %d", w.Code)
	}
	var view ProfilerView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil || len(view.Profiles) != 0 {
		t.Fatalf("empty listing = %+v (%v)", view, err)
	}

	if !p.Trigger("test anomaly") {
		t.Fatal("trigger suppressed")
	}
	p.Wait()
	w = get(t, a.Handler(), "/debug/profiles")
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil || len(view.Profiles) != 1 {
		t.Fatalf("listing after capture = %+v (%v)", view, err)
	}
	w = get(t, a.Handler(), "/debug/profiles?seq=1&kind=heap")
	if w.Code != 200 || w.Body.Len() == 0 {
		t.Fatalf("heap download: %d, %d bytes", w.Code, w.Body.Len())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("heap content-type = %q", ct)
	}
	if view.Profiles[0].Err == "" {
		if w := get(t, a.Handler(), "/debug/profiles?seq=1&kind=cpu"); w.Code != 200 || w.Body.Len() == 0 {
			t.Fatalf("cpu download: %d, %d bytes", w.Code, w.Body.Len())
		}
	}

	for path, want := range map[string]int{
		"/debug/profiles?seq=banana&kind=cpu": http.StatusBadRequest,
		"/debug/profiles?seq=1&kind=goros":    http.StatusBadRequest,
		"/debug/profiles?seq=99&kind=cpu":     http.StatusNotFound,
	} {
		if w := get(t, a.Handler(), path); w.Code != want {
			t.Errorf("%s: status = %d, want %d", path, w.Code, want)
		}
	}
}

func TestAdminAuditEndpoint(t *testing.T) {
	a, _, _ := newTestAdmin(t)
	if w := get(t, a.Handler(), "/audit"); w.Code != http.StatusNotFound {
		t.Fatalf("unconfigured /audit status = %d, want 404", w.Code)
	}
	a = NewAdmin(AdminSources{Audit: func() any { return map[string]int{"sampled": 42} }})
	w := get(t, a.Handler(), "/audit")
	if w.Code != 200 {
		t.Fatalf("/audit status = %d", w.Code)
	}
	var body map[string]int
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("/audit bad JSON: %v", err)
	}
	if body["sampled"] != 42 {
		t.Fatalf("/audit body = %v", body)
	}
}
