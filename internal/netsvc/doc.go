// Package netsvc is the networked serving layer: the paper's
// deployment model — an aggregator fanning each request out to many
// component sub-services — realized over real TCP sockets instead of
// in-process goroutine mailboxes (internal/service).
//
// The pieces, bottom up:
//
//   - Server: a component server — one listener, a bounded accept and
//     worker pool, and per-request deadline enforcement: a request
//     whose propagated absolute deadline (wire.Request.Deadline) has
//     already passed is answered Skipped without touching the handler,
//     and handlers run under a context carrying the remaining budget
//     so Algorithm 1 abandons improvement the moment it is exhausted.
//   - Aggregator: the scatter/gather client — the gather core of
//     internal/service (service.Gather: placement, first-wins
//     resolution, the P²-estimated p95 hedge trigger, breakers, retry,
//     the WaitAll / PartialGather / Hedged policies) running over a
//     transport of pooled persistent connections per component with
//     transparent reconnect. It implements frontend.Backend, so the
//     accuracy-aware frontend's admission, replica routing, and
//     degradation policies drive it unchanged.
//   - FrontServer: an aggregator process's client-facing listener: it
//     accepts whole-service wire.Requests, runs them through the
//     frontend pipeline, merges the sub-results with the application
//     composers (additive for CF and aggregation — bounds-aware via
//     the carried variances — top-k for search), and answers with a
//     composed wire.Reply recording what was delivered. NewFront
//     builds it with its planes — cache, SLO tracker, auditor, cost
//     table, each a ServerOptions field — validated together before a
//     worker starts; every front server forwards append batches. Client
//     requests, cache refreshes, re-warms and audit replays all take
//     one pass (FrontServer.pass), which owns the trace, the cost
//     account, the cache-or-fan-out choice and the SLO and audit
//     feeds; the charges table beside it says what each origin is
//     charged to.
//   - Client: the front server's wire client, over the same
//     multiplexed connection type (peerConn) the aggregator pools.
//   - Backends: per-workload component handlers on one skeleton
//     (newBackend: validation, l_spe budget, interference, shard pick,
//     scan crediting and modeled per-point scan cost, the single
//     core.Run), each workload supplying only its exact scan, its
//     pooled engine and its result's wire form; the interference hook
//     and modeled cost give laptop-scale loopback deployments
//     cluster-shaped tails.
//   - StartLoopback: the one place a loopback deployment (component
//     servers, aggregator, optional front server and client) is
//     assembled, waited ready and torn down in reverse order; the
//     *compare experiments and this package's tests all build on it.
//   - OpenLoop: the schedule-driven open-loop load generator. It offers
//     a precomputed arrival schedule (workload.PoissonArrivals — the
//     slice the simulator consumes) against absolute times and hands
//     each request its intended send instant, so latency is timed from
//     when the request was due, not from when the generator got to it.
package netsvc
