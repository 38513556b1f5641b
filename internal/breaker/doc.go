// Package breaker implements the per-peer circuit breaker of the
// failure-domain hardening extension (PR 7) — the machinery that keeps
// a dead or flapping component from turning into retry storms and
// head-of-line stalls in the networked serving path.
//
// A Breaker is the classic three-state machine: Closed counts
// consecutive failures and trips Open at a threshold; Open fails every
// request fast for a cooldown; after the cooldown one half-open probe
// is admitted, and its outcome decides between re-closing (the peer
// healed) and re-opening (still down, new cooldown). Both the
// aggregator's peers (internal/netsvc) and the in-process cluster's
// components (internal/service) wear one, so the two runtimes keep
// behavioural parity under component failure.
//
// A breaker is a peer's only failure state. Its cooldown is also the
// pace of a transport's own prober: the aggregator's reconnector
// redials a dead peer once per cooldown, as the breaker's half-open
// probe, and has no dial schedule of its own.
package breaker
