// Package obs is the serving stack's low-overhead observability layer:
// a unified metrics registry and a per-request decision tracer, surfaced
// through an admin HTTP plane.
//
// The registry (Registry) holds atomic counters, gauges and
// fixed-bucket histograms, and renders them in the Prometheus text
// exposition format. The three runtime packages' ad-hoc Stats structs
// (internal/frontend, internal/service, internal/rescache) are backed by
// registry counters — their snapshot APIs are unchanged, but every
// counter a Stats() call reports is now also one scrape away.
//
// The tracer (Recorder) is a preallocated ring buffer of per-request
// span trees. A request's trace records the admission verdict, the
// chosen SLO class and ladder level, cache hit/miss/coalesce, per
// component dispatch/queue/execution time, hedge fires, and merge time.
// The trace travels by context: TraceFrom asks the context for TraceKey.
// A served request carries no context layer for it — the netsvc job the
// request was decoded into holds the trace and answers the key from its
// own Value — and context.WithValue puts one on any other context.
// Its 64-bit ID propagates across TCP in the wire protocol (v3), so
// component servers report server-side queue and execution spans that
// the aggregator stitches into the same tree; a traced sub-reply holds
// them in its own object. When no trace rides the context every
// recording call is a nil-receiver no-op: the disabled hot path
// performs zero allocations (CI-guarded).
//
// The admin plane (Admin) serves /metrics (Prometheus text), /healthz
// (readiness, flipped unready during graceful drain), /traces?n=K
// (recent traces as JSON) and /debug/pprof. Summarize turns a batch of
// traces into per-SLO-class deadline-budget breakdown tables — where a
// slow request actually spent its budget.
package obs
