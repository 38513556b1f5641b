package cost

import (
	"context"
	"sync/atomic"
)

// Usage is a resource account: what some unit of work consumed. Usages
// add component-wise.
type Usage struct {
	// CPUNs is handler execution time in nanoseconds, summed over every
	// span that did work for the request.
	CPUNs uint64 `json:"cpu_ns"`
	// Scanned counts data units touched: fact rows, postings, sample
	// units — each workload's natural scan unit.
	Scanned uint64 `json:"scanned"`
	// QueueNs is time spent waiting in server queues, nanoseconds.
	QueueNs uint64 `json:"queue_ns"`
	// WireBytes is frame bytes moved on the wire for the request.
	WireBytes uint64 `json:"wire_bytes"`
	// WallNs is end-to-end wall time at the recording hop, nanoseconds.
	// Unlike the four counters above it is not additive across fan-out
	// (sub-operations overlap), so it is set once by the closer.
	WallNs uint64 `json:"wall_ns"`
}

// Add returns u with v folded in.
func (u Usage) Add(v Usage) Usage {
	u.CPUNs += v.CPUNs
	u.Scanned += v.Scanned
	u.QueueNs += v.QueueNs
	u.WireBytes += v.WireBytes
	u.WallNs += v.WallNs
	return u
}

// Account accumulates one in-flight request's usage. Peer goroutines
// fold sub-operation costs in concurrently, so the fields are atomics.
// A nil *Account no-ops on every method — the zero-cost-off idiom.
type Account struct {
	cpuNs     atomic.Uint64
	scanned   atomic.Uint64
	queueNs   atomic.Uint64
	wireBytes atomic.Uint64
}

// Add folds u's additive counters into the account (WallNs is ignored:
// wall time is the closer's measurement, not a sum). Nil-safe.
func (a *Account) Add(u Usage) {
	if a == nil {
		return
	}
	if u.CPUNs != 0 {
		a.cpuNs.Add(u.CPUNs)
	}
	if u.Scanned != 0 {
		a.scanned.Add(u.Scanned)
	}
	if u.QueueNs != 0 {
		a.queueNs.Add(u.QueueNs)
	}
	if u.WireBytes != 0 {
		a.wireBytes.Add(u.WireBytes)
	}
}

// AddWireBytes folds n frame bytes into the account. Nil-safe.
func (a *Account) AddWireBytes(n uint64) {
	if a == nil || n == 0 {
		return
	}
	a.wireBytes.Add(n)
}

// Usage snapshots the account's additive counters (WallNs is zero; the
// closer stamps it). Nil-safe: a nil account reads as all-zero.
func (a *Account) Usage() Usage {
	if a == nil {
		return Usage{}
	}
	return Usage{
		CPUNs:     a.cpuNs.Load(),
		Scanned:   a.scanned.Load(),
		QueueNs:   a.queueNs.Load(),
		WireBytes: a.wireBytes.Load(),
	}
}

// AccountKey is the context key a request's *Account is found under,
// so every hop below the front server can fold usage in. A request
// record that carries its own account answers it from Value — a netsvc
// server's job does, so a metered request adds neither a context layer
// nor an account object — and context.WithValue puts one on any other
// context.
type AccountKey struct{}

// AccountFrom returns the context's cost account, or nil. The nil
// result composes with the nil-safe methods: callers just call Add.
func AccountFrom(ctx context.Context) *Account {
	a, _ := ctx.Value(AccountKey{}).(*Account)
	return a
}
