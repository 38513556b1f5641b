// Package service is the live (wall-clock) runtime of the AccuracyTrader
// reproduction: the same fan-out topology the simulator models — a
// frontend partitioning each request across n parallel components, each a
// single-server FIFO worker goroutine, and a composer gathering
// sub-results — running on real goroutines with context deadlines.
//
// The gather policies mirror the compared techniques:
//
//   - WaitAll — the Basic behaviour: block until every component replies.
//   - PartialGather — partial execution: return whatever arrived by the
//     deadline and skip the rest.
//   - Hedged — request reissue: when a sub-operation has been outstanding
//     longer than the estimated p95 sub-operation latency, enqueue a
//     replica of it on another component and use the quicker reply.
//
// AccuracyTrader itself needs no special gather policy: components finish
// within the deadline by construction (the component handler skeleton,
// netsvc's newBackend, runs Algorithm 1's core.Run against the
// sub-operation's budget, min(propagated deadline, now + SubBudget)), so
// WaitAll composes complete results quickly.
//
// The scatter/gather loop itself — placement, first-wins resolution,
// hedging, breakers, retry, the three policies — is Gather, written
// once against a three-method Transport. Cluster is Gather over mailbox
// workers; netsvc.Aggregator is the same Gather over TCP connections.
package service
