// Package frontend is the accuracy-aware frontend of the fan-out
// runtime: the pipeline stage between arriving requests and component
// mailboxes that closes the paper's accuracy/load feedback loop.
//
// A request passes three cooperating pieces:
//
//   - Admission: pluggable policies that reject or
//     downgrade requests before they consume any component capacity,
//     so overload surfaces at the door instead of as mailbox overflow
//     deep in the fan-out.
//   - Router: shard-replica routing policies over an R-replica
//     component map, so a hot subset can be served by any of its
//     replicas instead of only its home component.
//   - DegradationController: an EWMA load estimator that maps observed
//     load to a synopsis.Ladder level per request, honoring per-request
//     SLO classes — saturation coarsens synopses instead of growing
//     queues until requests time out.
//
// Every gather is then settled by the one per-SLO degrade rule, Claim,
// which discounts a partial answer's claim and refuses with a typed
// *UnavailableError the ones an Exact or Bounded class cannot take.
// Both wall-clock runtimes obey it: netsvc only maps it to the wire.
//
// Every policy is clock-agnostic (time is a float64 millisecond
// offset) and reads load through the Load snapshot, so the same policy
// values drive both the live goroutine runtime (internal/service via
// Frontend) and the discrete-event simulator (internal/cluster), which
// evaluates them at scales the live runtime can't reach.
package frontend
