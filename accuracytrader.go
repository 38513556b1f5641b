// Package accuracytrader is a from-scratch Go reproduction of
// "AccuracyTrader: Accuracy-aware Approximate Processing for Low Tail
// Latency and High Result Accuracy in Cloud Online Services" (Han, Huang,
// Tang, Chang, Zhan — ICPP 2016, arXiv:1607.02734).
//
// AccuracyTrader targets highly parallel online services in which every
// request fans out over hundreds of components, each owning a subset of a
// large input dataset, so the component tail latency (p99.9) determines
// the service latency. The framework trades a small, controlled amount of
// result accuracy for large tail-latency reductions:
//
//   - Offline (BuildSynopsis, Synopsis.Update): each component's data
//     subset is reduced to a low-dimensional latent space with
//     incremental SVD, similar points are grouped with an R-tree, and
//     each group becomes one aggregated data point of a small synopsis
//     plus an index-file entry mapping it to its original members.
//     Updates are incremental: only groups whose membership changed are
//     re-aggregated.
//   - Online (Run, RunWithDeadline — Algorithm 1 of the paper): a
//     component first processes its synopsis, producing a fast initial
//     result and a correlation estimate per aggregated point, then
//     improves the result with the original member sets in descending
//     correlation order until the service deadline (l_spe) or the set
//     cap (imax).
//
// This package is the facade the examples program against. It
// re-exports from:
//
//	internal/core      Algorithm 1 (generic over applications)
//	internal/synopsis  offline synopsis management (with internal/svd)
//	internal/agg       approximate aggregation analytics application
//	internal/service   live goroutine fan-out runtime (wall clock)
//	internal/frontend  accuracy-aware frontend: admission, replica
//	                   routing, load-adaptive synopsis degradation
//	internal/wire      binary protocol of the networked serving layer
//	internal/netsvc    networked serving: component servers, socket
//	                   aggregator, composed-reply front server
//	internal/rescache  accuracy-tagged result cache
//	internal/obs       metrics registry, decision traces, admin plane
//	internal/audit     background ground-truth accuracy auditor
//
// See README.md for the full package map, ARCHITECTURE.md for the
// dataflow and package-dependency map, examples/ for runnable
// end-to-end programs and EXPERIMENTS.md for the paper-vs-measured
// record.
package accuracytrader

import (
	"context"
	"io"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/core"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/service"
	"accuracytrader/internal/svd"
	"accuracytrader/internal/synopsis"
	"accuracytrader/internal/wire"
)

// FeatureSource exposes a data subset as sparse numeric feature vectors —
// the input to synopsis creation (paper §2.2 step 1).
type FeatureSource = synopsis.FeatureSource

// FeatureCell is one (column, value) pair of a sparse feature vector.
type FeatureCell = svd.Cell

// SynopsisConfig controls offline synopsis creation.
type SynopsisConfig = synopsis.Config

// SVDConfig controls the step-1 dimensionality reduction.
type SVDConfig = svd.Config

// Synopsis is a component's synopsis plus index file (paper §2.2).
type Synopsis = synopsis.Synopsis

// Group is one index-file entry: the members of one aggregated point.
type Group = synopsis.Group

// Change describes an input-data change for incremental updating.
type Change = synopsis.Change

// Add is the change kind of a new data point (paper §2.2).
const Add = synopsis.Add

// BuildSynopsis creates a synopsis for one component's data subset.
func BuildSynopsis(src FeatureSource, cfg SynopsisConfig) (*Synopsis, error) {
	return synopsis.Build(src, cfg)
}

// LoadSynopsis reads a synopsis written with Synopsis.Save.
func LoadSynopsis(r io.Reader) (*Synopsis, error) {
	return synopsis.Load(r)
}

// Engine is the application side of Algorithm 1: process the synopsis
// (returning per-aggregated-point correlations) and improve the result
// one member set at a time.
type Engine = core.Engine

// Continue decides whether Algorithm 1 may process another set.
type Continue = core.Continue

// Trace reports what a run processed.
type Trace = core.Trace

// Run executes Algorithm 1 with an arbitrary continuation condition.
func Run(e Engine, cont Continue, imax int) Trace {
	return core.Run(e, cont, imax)
}

// RunWithDeadline executes Algorithm 1 against a wall-clock deadline
// (l_spe in the paper; 100ms in its evaluation).
func RunWithDeadline(e Engine, deadline time.Duration, imax int) Trace {
	return core.RunWithDeadline(e, deadline, imax)
}

// BudgetContinue allows exactly k improvement steps.
func BudgetContinue(k int) Continue { return core.BudgetContinue(k) }

// Rank orders aggregated points by descending correlation.
func Rank(correlations []float64) []int { return core.Rank(correlations) }

// Handler processes one sub-operation in the live runtime.
type Handler = service.Handler

// Cluster is the live fan-out runtime: one worker goroutine per
// component, gather policies matching the paper's compared techniques.
type Cluster = service.Cluster

// ClusterOptions configures the live runtime.
type ClusterOptions = service.Options

// Policy selects the live runtime's gather behaviour.
type Policy = service.Policy

// Gather policies of the live runtime.
const (
	WaitAll       = service.WaitAll       // Basic: wait for every component
	PartialGather = service.PartialGather // Partial execution: skip late components
	Hedged        = service.Hedged        // Request reissue: hedge stragglers
)

// NewCluster starts a live cluster over the given per-subset handlers.
func NewCluster(handlers []Handler, policy Policy, opts ClusterOptions) (*Cluster, error) {
	return service.New(handlers, policy, opts)
}

// Frontend is the accuracy-aware frontend pipeline — admission →
// replica routing → load-adaptive synopsis degradation — in front of a
// live Cluster.
type Frontend = frontend.Frontend

// FrontendOptions configures a Frontend.
type FrontendOptions = frontend.Options

// FrontendUnavailable is Frontend.Call's typed refusal of a partial
// gather its class cannot take (match it with errors.As).
type FrontendUnavailable = frontend.UnavailableError

// SLO is a per-request accuracy/latency class.
type SLO = frontend.SLO

// ExactSLO requires the finest processing regardless of load.
func ExactSLO() SLO { return frontend.ExactSLO() }

// BoundedSLO accepts degradation down to an estimated accuracy floor.
func BoundedSLO(minAccuracy float64) SLO { return frontend.BoundedSLO(minAccuracy) }

// BestEffortSLO accepts whatever level the current load dictates.
func BestEffortSLO() SLO { return frontend.BestEffortSLO() }

// AdmissionPolicy decides whether an arriving request enters the
// fan-out.
type AdmissionPolicy = frontend.AdmissionPolicy

// NewMaxInflight caps concurrent admitted requests.
func NewMaxInflight(limit int) AdmissionPolicy { return frontend.NewMaxInflight(limit) }

// NewQueueWatermark degrades and sheds on mailbox occupancy.
func NewQueueWatermark(degradeAt, rejectAt float64) AdmissionPolicy {
	return frontend.NewQueueWatermark(degradeAt, rejectAt)
}

// Router places sub-operations on shard replicas.
type Router = frontend.Router

// NewLeastLoaded routes to the replica with the shallowest queue.
func NewLeastLoaded() Router { return frontend.NewLeastLoaded() }

// DegradationController maps observed load to ladder levels per SLO.
type DegradationController = frontend.Controller

// DegradationConfig parametrizes the controller.
type DegradationConfig = frontend.ControllerConfig

// NewDegradationController builds the load→ladder-level controller.
func NewDegradationController(cfg DegradationConfig) (*DegradationController, error) {
	return frontend.NewController(cfg)
}

// FrontendBackend is the fan-out runtime seam a Frontend drives: both
// the in-process Cluster and the networked NetAggregator satisfy it,
// so one policy set (admission, routing, degradation) governs every
// runtime.
type FrontendBackend = frontend.Backend

// NewFrontend wraps a fan-out backend — a live in-process Cluster or a
// networked NetAggregator — with the frontend pipeline.
func NewFrontend(b FrontendBackend, opts FrontendOptions) (*Frontend, error) {
	return frontend.New(b, opts)
}

// LevelFrom extracts the frontend-selected ladder level inside a
// Handler; ok is false when the request did not pass a Frontend.
func LevelFrom(ctx context.Context) (level int, ok bool) { return frontend.LevelFrom(ctx) }

// The approximate aggregation application (internal/agg): BlinkDB-style
// bounded-error SUM/COUNT/AVG-per-group queries over stratified samples
// — the third workload, whose synopsis is a multi-resolution ladder of
// per-stratum samples and whose accuracy metric is 1 − mean relative
// error against the exact answer.

// FactTable is a columnar fact-table shard: (group key, value) rows.
type FactTable = agg.Table

// NewFactTable returns an empty fact table over numKeys group keys.
func NewFactTable(numKeys int) *FactTable { return agg.NewTable(numKeys) }

// AggConfig controls the stratified-sample synopsis ladder.
type AggConfig = agg.Config

// AggComponent is one parallel service component of the aggregation
// application: a fact-table shard plus its synopsis ladder.
type AggComponent = agg.Component

// BuildAggComponent builds a shard's stratified-sample synopsis ladder
// (the aggregation application's offline module).
func BuildAggComponent(t *FactTable, cfg AggConfig) (*AggComponent, error) {
	return agg.BuildComponent(t, cfg)
}

// AggQuery is one aggregation request: Op(value) GROUP BY key over the
// rows whose value lies in [Lo, Hi).
type AggQuery = agg.Query

// AggSum is the SUM aggregate of an AggQuery.
const AggSum = agg.Sum

// AggResult is a component's partial aggregation answer: per-key
// estimates with CLT variances; partial results merge by addition.
type AggResult = agg.Result

// GetAggEngine returns a pooled aggregation engine (an Engine for
// Algorithm 1) reset for the query at a ladder level; release it with
// its Release method when the request is finished.
func GetAggEngine(c *AggComponent, q AggQuery, level int) *agg.Engine {
	return agg.GetEngine(c, q, level)
}

// ExactAggResult is the component's exact answer — the full-computation
// baseline the accuracy metric compares against.
func ExactAggResult(c *AggComponent, q AggQuery) AggResult { return agg.ExactResult(c, q) }

// AggAccuracy is the aggregation accuracy metric: 1 − mean relative
// error of the approximate per-key estimates against the exact ones.
func AggAccuracy(approx, exact []float64) float64 { return agg.Accuracy(approx, exact) }

// MeasureAggLevelAccuracy calibrates one ladder level against exact
// answers over a query sample — the measured per-level accuracy that
// feeds DegradationConfig.LevelAccuracy, connecting Bounded SLO floors
// to this workload's real error.
func MeasureAggLevelAccuracy(comps []*AggComponent, queries []AggQuery, level int) float64 {
	return agg.MeasureLevelAccuracy(comps, queries, level)
}

// SLOFrom extracts the request's effective SLO inside a Handler, so
// handlers can bypass their synopsis for Exact-class requests; ok is
// false when the request did not pass a Frontend.
func SLOFrom(ctx context.Context) (slo SLO, ok bool) { return frontend.SLOFrom(ctx) }

// The networked serving layer (internal/wire + internal/netsvc): the
// paper's deployment model — an aggregator fanning each request out to
// many component sub-services — over real TCP sockets, with the SLO
// class, ladder level and absolute deadline propagated on every hop.

// WireRequest is one sub-operation (or, with Subset < 0, one
// whole-service request) on the wire.
type WireRequest = wire.Request

// WireAggRequest is the aggregation workload's request payload.
type WireAggRequest = wire.AggRequest

// WireReply is the composed whole-service reply.
type WireReply = wire.Reply

// WireKindAgg is the aggregation workload's payload kind.
const WireKindAgg = wire.KindAgg

// NetHandler serves one sub-operation on a component server.
type NetHandler = netsvc.Handler

// NetServerOptions configures component and front servers.
type NetServerOptions = netsvc.ServerOptions

// NetComponentServer is a shard-holding process's listener: bounded
// accept/worker pool, deadline enforcement from the propagated budget.
type NetComponentServer = netsvc.Server

// NewNetComponentServer returns a component server around a handler.
func NewNetComponentServer(h NetHandler, opts NetServerOptions) *NetComponentServer {
	return netsvc.NewServer(h, opts)
}

// NetBackendOptions configures the per-workload component handlers
// (modeled scan cost, interference hook, improvement cap).
type NetBackendOptions = netsvc.BackendOptions

// NewNetAggBackend serves the aggregation workload over comps.
func NewNetAggBackend(comps []*AggComponent, opts NetBackendOptions) NetHandler {
	return netsvc.NewAggBackend(comps, opts)
}

// NetAggregator is the scatter/gather client over component servers:
// pooled reconnecting connections, the same WaitAll / PartialGather /
// Hedged gather policies as the in-process runtime, and a
// FrontendBackend implementation so NewFrontend drives it unchanged.
type NetAggregator = netsvc.Aggregator

// NetAggregatorOptions configures a NetAggregator.
type NetAggregatorOptions = netsvc.AggregatorOptions

// NewNetAggregator returns an aggregator over one address per
// component.
func NewNetAggregator(addrs []string, opts NetAggregatorOptions) (*NetAggregator, error) {
	return netsvc.NewAggregator(addrs, opts)
}

// NetFrontServer answers whole-service requests with composed replies
// through the accuracy-aware frontend pipeline.
type NetFrontServer = netsvc.FrontServer

// NewNetFrontServer wraps an aggregator and a frontend; a nil fe is one
// with no controller and no admission policy, on home placement.
func NewNetFrontServer(agr *NetAggregator, fe *Frontend, opts NetServerOptions) *NetFrontServer {
	return netsvc.NewFrontServer(agr, fe, opts)
}

// NetClient talks to a NetFrontServer over one multiplexed connection.
type NetClient = netsvc.Client

// NetClientOptions configures a NetClient.
type NetClientOptions = netsvc.ClientOptions

// DialNetClient connects to a NetFrontServer.
func DialNetClient(addr string, opts NetClientOptions) (*NetClient, error) {
	return netsvc.DialClient(addr, opts)
}

// NetAggResultOf views a composed wire aggregation result as an
// AggResult, so Estimate/Bound work on network replies.
func NetAggResultOf(r *wire.AggResult) AggResult { return netsvc.AggResultOf(r) }

// The accuracy-aware result cache (internal/rescache): a sharded,
// bounded, accuracy-tagged response cache in front of a NetFrontServer.
// Entries carry the accuracy bound they were computed at and a
// data-version epoch; a hit is served only when the recorded accuracy
// clears the request's floor and the epoch is current. Concurrent
// identical misses coalesce onto one computation, and a low-priority
// worker refreshes popular coarse entries to exact.

// ResultCache is the accuracy-aware response cache.
type ResultCache = rescache.Cache

// ResultCacheConfig configures a ResultCache.
type ResultCacheConfig = rescache.Config

// NewResultCache returns an empty cache. Wire it into a NetFrontServer
// via its EnableCache method, which keys requests on their canonical
// wire encoding (semantically identical requests share an entry), serves
// hits ahead of admission and installs the refresh-to-exact worker.
// Bump its epoch after synopsis updates to invalidate lazily.
func NewResultCache(cfg ResultCacheConfig) (*ResultCache, error) { return rescache.New(cfg) }

// The observability plane (internal/obs): a unified metrics registry,
// per-request decision traces that stitch across the wire, and the
// admin HTTP plane serving both. Tracing is strictly opt-in — a nil
// recorder (or an untraced request) makes every recording call a
// zero-allocation no-op, so the serving path pays nothing when
// observability is off.

// MetricsRegistry is the unified metrics registry: sharded counters,
// gauges and fixed-bucket histograms with Prometheus-text exposition.
// Wire it into a frontend via FrontendOptions.Metrics and serve it via
// NewAdminPlane.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// TraceRecorder holds the most recent n request traces in a
// preallocated ring. Pass it as NetServerOptions.Tracer to trace a
// NetFrontServer's requests end to end.
type TraceRecorder = obs.Recorder

// NewTraceRecorder returns a recorder keeping the last n traces, each
// capped at maxSpans spans.
func NewTraceRecorder(n, maxSpans int) *TraceRecorder { return obs.NewRecorder(n, maxSpans) }

// TraceView is an immutable snapshot of one recorded trace.
type TraceView = obs.TraceView

// TraceSummary aggregates recorded traces into a per-SLO-class
// deadline-budget breakdown table (its Render method).
type TraceSummary = obs.Summary

// SummarizeTraces builds the per-SLO-class breakdown over a recorder
// snapshot.
func SummarizeTraces(views []TraceView) *TraceSummary { return obs.Summarize(views) }

// AdminPlane is the operational HTTP endpoint set: /metrics (the
// registry in Prometheus text), /traces (recent decision traces as
// JSON), /healthz (readiness, flipped during graceful shutdown), /slo,
// /audit, /costs, /frontier, /debug/profiles and /debug/pprof.
type AdminPlane = obs.Admin

// AdminSources are the planes an AdminPlane serves, each nil when the
// deployment runs without it.
type AdminSources = obs.AdminSources

// NewAdminPlane serves the planes in src, built first; call its Listen
// method with a loopback address, Close when done.
func NewAdminPlane(src AdminSources) *AdminPlane { return obs.NewAdmin(src) }

// The accuracy audit plane (internal/audit + internal/obs): the system
// claims an accuracy on every approximate answer; the audit plane
// checks that claim against ground truth. A background auditor replays
// a deterministic hash-sample of answered requests at the Exact level
// off the hot path (gated on controller load, like the cache refresh
// worker), compares realized error against the claimed accuracy and
// CLT bounds, and maintains per-workload/per-level calibration tables.
// Alongside it, an SLO tracker accumulates deadline-miss, degradation
// and accuracy-floor burn rates over sliding 1m/10m/1h windows, and
// the trace recorder pins anomalous traces into an exemplar store so
// the interesting tails survive ring rotation.

// SLOBudgets are the per-signal error budgets burn rates are measured
// against (deadline misses, accuracy-floor violations, degraded
// replies).
type SLOBudgets = obs.SLOBudgets

// DefaultSLOBudgets returns the stock budgets: 0.1% deadline misses,
// 0.1% floor violations, 5% degraded replies.
func DefaultSLOBudgets() SLOBudgets { return obs.DefaultSLOBudgets() }

// SLOTracker accumulates per-class (and per-tenant) SLO attainment
// over sliding 1m/10m/1h windows. Wire it into a NetFrontServer via
// EnableSLO and serve it via AdminSources.SLO (/slo).
type SLOTracker = obs.SLOTracker

// NewSLOTracker returns an empty tracker with the given budgets.
func NewSLOTracker(budgets SLOBudgets) *SLOTracker { return obs.NewSLOTracker(budgets) }

// AuditConfig configures EnableAudit. The zero value is serviceable:
// 5% deterministic trace-ID sampling, a 256-slot queue and a paced
// single worker.
type AuditConfig = audit.Config

// AuditReport bundles an auditor's stats and calibration tables —
// the document AdminSources.Audit serves at /audit.
type AuditReport = audit.Report
