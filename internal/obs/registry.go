package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is
// usable; increments never allocate.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: bounds are set at creation,
// observations never allocate. Bucket i counts observations <=
// bounds[i]; the final implicit bucket counts the rest (+Inf).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefaultLatencyBuckets are millisecond bounds that resolve both the
// sub-millisecond in-process path and the hundreds-of-milliseconds
// interference tail.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}
}

func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, fmt.Errorf("obs: histogram bounds must strictly increase (bound %d: %g after %g)",
				i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (~12) and the common case
	// exits early; a binary search's branches cost about the same.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry names and exposes a process's metrics. Metric instruments
// are get-or-create: asking twice for the same name returns the same
// instrument, so independently wired subsystems share counters by
// naming convention. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() float64{},
		hists:      map[string]*Histogram{},
	}
}

// NameError is the typed registration error for malformed metric
// names. Registration methods panic with a *NameError — metric names
// are compile-time constants, so a typo should fail the first test
// that touches it.
type NameError struct {
	Name   string // the offending metric name
	Reason string // what is wrong with it
}

// Error implements error.
func (e *NameError) Error() string {
	return fmt.Sprintf("obs: invalid metric name %q: %s", e.Name, e.Reason)
}

// validName checks the metric name: a Prometheus-compatible identifier
// with an optional {label="value",...} suffix.
func validName(name string) *NameError {
	base, labels := splitName(name)
	if base == "" {
		return &NameError{Name: name, Reason: "empty base name"}
	}
	for i, r := range base {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return &NameError{Name: name, Reason: fmt.Sprintf("character %q not allowed", r)}
		}
	}
	if labels != "" && (!strings.HasPrefix(labels, "{") || !strings.HasSuffix(labels, "}")) {
		return &NameError{Name: name, Reason: "label suffix must be {...}"}
	}
	return nil
}

// EscapeLabelValue escapes a label value for the Prometheus text
// exposition format: backslash, double quote and newline become
// \\, \" and \n. Every dynamically interpolated label value must pass
// through here (Labels does it automatically) or a hostile value could
// break out of its quotes and corrupt the whole scrape.
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Labels renders alternating key/value pairs as a {k="v",...} metric
// name suffix with the values escaped, the one safe way to build a
// labelled metric name from dynamic strings:
//
//	reg.GaugeFunc("cost_key_requests_total"+obs.Labels("tenant", tenant), requests)
//
// Odd trailing keys and empty input yield "" (no suffix). Keys are the
// caller's responsibility and must be static identifiers.
func Labels(kv ...string) string {
	if len(kv) < 2 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates "name{label=...}" into base name and label block.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// Counter returns (creating if needed) the named counter. Invalid
// names panic: metric names are compile-time constants and a typo
// should fail the first test that touches it.
func (r *Registry) Counter(name string) *Counter {
	if err := validName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if err := validName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge computed at scrape time (live queue
// depths, cache sizes). Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	if err := validName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = f
	r.mu.Unlock()
}

// Histogram returns (creating if needed) the named histogram. The
// bounds of an existing histogram are kept; passing different bounds
// for the same name panics, surfacing the conflict where it is made.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if err := validName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Errorf("obs: histogram %q re-registered with different bounds", name))
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				panic(fmt.Errorf("obs: histogram %q re-registered with different bounds", name))
			}
		}
		return h
	}
	h, err := newHistogram(bounds)
	if err != nil {
		panic(err)
	}
	r.hists[name] = h
	return h
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format, sorted by name for stable output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	type namedCounter struct {
		name string
		c    *Counter
	}
	type namedGauge struct {
		name string
		v    float64
	}
	type namedHist struct {
		name string
		h    *Histogram
	}
	counters := make([]namedCounter, 0, len(r.counters))
	for name, c := range r.counters {
		counters = append(counters, namedCounter{name, c})
	}
	gauges := make([]namedGauge, 0, len(r.gauges)+len(r.gaugeFuncs))
	for name, g := range r.gauges {
		gauges = append(gauges, namedGauge{name, g.Value()})
	}
	fns := make(map[string]func() float64, len(r.gaugeFuncs))
	for name, f := range r.gaugeFuncs {
		fns[name] = f
	}
	hists := make([]namedHist, 0, len(r.hists))
	for name, h := range r.hists {
		hists = append(hists, namedHist{name, h})
	}
	r.mu.RUnlock()
	// Scrape-time gauges run outside the registry lock: a GaugeFunc may
	// probe a subsystem that itself registers metrics.
	for name, f := range fns {
		gauges = append(gauges, namedGauge{name, f()})
	}

	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })

	var b strings.Builder
	typed := map[string]bool{}
	typeLine := func(name, kind string) {
		base, _ := splitName(name)
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, kind)
		}
	}
	for _, nc := range counters {
		typeLine(nc.name, "counter")
		fmt.Fprintf(&b, "%s %d\n", nc.name, nc.c.Value())
	}
	for _, ng := range gauges {
		typeLine(ng.name, "gauge")
		fmt.Fprintf(&b, "%s %g\n", ng.name, ng.v)
	}
	for _, nh := range hists {
		typeLine(nh.name, "histogram")
		base, labels := splitName(nh.name)
		leName := func(le string) string {
			if labels == "" {
				return fmt.Sprintf("%s_bucket{le=%q}", base, le)
			}
			return fmt.Sprintf("%s_bucket%s,le=%q}", base, labels[:len(labels)-1], le)
		}
		var cum int64
		for i := range nh.h.buckets {
			cum += nh.h.buckets[i].Load()
			le := "+Inf"
			if i < len(nh.h.bounds) {
				le = formatFloat(nh.h.bounds[i])
			}
			fmt.Fprintf(&b, "%s %d\n", leName(le), cum)
		}
		fmt.Fprintf(&b, "%s_sum%s %g\n", base, labels, nh.h.Sum())
		fmt.Fprintf(&b, "%s_count%s %d\n", base, labels, nh.h.Count())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a bucket bound the way Prometheus clients expect.
func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
