package main

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"os"
	"reflect"
	"testing"

	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// smokeSeconds runs every workload at 1% of the benchmark's op count.
const smokeSeconds = 0.15

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalogue:\n file %+v\n code %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue")
	}
	ws := workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the file, %d in the code", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, code has %q", i, f.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v", f.RunSeconds, f.Paths)
	}
}

// checkMetrics asserts that a run emitted exactly the catalogued
// metrics, each finite.
func checkMetrics(t *testing.T, rep *report, defs []metricDef, trace int) {
	t.Helper()
	out := encode(rep, trace)
	if len(out.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d catalogued", len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not emitted", d.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v", d.Name, v)
		}
		if out.Metrics[d.Name].Unit != d.Unit {
			t.Errorf("metric %s printed with unit %q, catalogue says %q", d.Name, out.Metrics[d.Name].Unit, d.Unit)
		}
	}
	for name := range rep.Metrics {
		found := false
		for _, d := range defs {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("metric %s emitted but not catalogued", name)
		}
	}
	if len(rep.Invalid) > 0 {
		t.Errorf("run invalid: %v", rep.Invalid)
	}
}

func TestSmokeUntraced(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep, err := runUntraced(w, 1, smokeSeconds, 2)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep, endToEnd, 0)
			if rep.Failed != 0 {
				t.Errorf("%d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.Notes)
			}
			for _, d := range endToEnd {
				if rep.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, rep.Metrics[d.Name])
				}
			}
			if !w.open && rep.Metrics["ok_frac"] != 1 {
				t.Errorf("ok_frac = %v on a closed loop", rep.Metrics["ok_frac"])
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep, err := runTraced(w, 1, smokeSeconds/tracedShare, dir)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep, perLayer, 1)
			if rep.Failed != 0 {
				t.Errorf("%d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.Notes)
			}
			var tf traceFile
			raw, err := os.ReadFile(dir + "/trace-" + w.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			names := map[string]int{}
			for _, s := range tf.Spans {
				names[s.Name]++
				if s.End < s.Start {
					t.Fatalf("span %+v ends before it starts", s)
				}
			}
			for _, want := range []string{spanClient, spanGather, spanHandler} {
				if names[want] == 0 {
					t.Errorf("trace file has no %s span", want)
				}
			}
			if rep.Metrics["netsvc.handler_us"] <= 0 || rep.Metrics["wire.dec_sub_ns"] <= 0 {
				t.Errorf("handler_us %v dec_sub_ns %v", rep.Metrics["netsvc.handler_us"], rep.Metrics["wire.dec_sub_ns"])
			}
		})
	}
}

// An untraced run passes a nil tracer to every seam: nothing may be
// wrapped, so the program runs exactly as deployed.
func TestNilTracerInstallsNothing(t *testing.T) {
	var tr *tracer
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := tr.wrapListener(l, true); got != l {
		t.Error("nil tracer wrapped the listener")
	}
	if tr.dialer() != nil {
		t.Error("nil tracer installed a dialer")
	}
	h := netsvc.Handler(func(context.Context, *wire.Request) *wire.SubReply { return nil })
	if reflect.ValueOf(tr.wrapHandler(0, h)).Pointer() != reflect.ValueOf(h).Pointer() {
		t.Error("nil tracer decorated the handler")
	}
	agg, err := netsvc.NewAggregator([]string{l.Addr().String()}, netsvc.AggregatorOptions{Policy: service.WaitAll})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if got, ok := tr.wrapBackend(agg).(*netsvc.Aggregator); !ok || got != agg {
		t.Error("nil tracer decorated the aggregator")
	}
}

func TestUnionAndBreakdown(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 30, End: 40}}
	if got := unionNs(spans); got != 30 {
		t.Fatalf("union = %d, want 30", got)
	}
	tr := newTracer()
	at := func(us int) (ts timeAt) { return timeAt{tr, us} }
	// Request 7: client 0-100us, gather 20-80, two handlers 30-50 and 40-70.
	at(0).span(spanClient, 7, -1, 100)
	at(20).span(spanGather, 7, -1, 80)
	at(30).span(spanHandler, 7, 0, 50)
	at(40).span(spanHandler, 7, 1, 70)
	// A later replay of the same request id must not be linked.
	at(500).span(spanGather, 7, -1, 600)
	// Request 8 was answered from the cache: client span only.
	at(200).span(spanClient, 8, -1, 230)
	bds, gather := tr.breakdowns(nil)
	if len(bds) != 1 || len(gather) != 1 {
		t.Fatalf("got %d breakdowns, want 1 (the cache hit has no gather span)", len(bds))
	}
	b := bds[0]
	if b.handler != 40 || b.gatherSelf != 20 || b.frontSelf != 40 || gather[0] != 60 {
		t.Fatalf("breakdown %+v gather %v; want handler 40, gather self 20, front self 40, gather 60", b, gather)
	}
}

// timeAt records spans at microsecond offsets from a tracer's epoch.
type timeAt struct {
	tr *tracer
	us int
}

func (a timeAt) span(name string, seq uint64, comp, endUs int) {
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, span{Name: name, Seq: seq, Comp: comp,
		Start: int64(a.us) * 1e3, End: int64(endUs) * 1e3})
	a.tr.mu.Unlock()
}
