package rescache

import (
	"context"
	"time"

	"accuracytrader/internal/cost"
	"accuracytrader/internal/obs"
)

// flight is one in-progress computation that concurrent identical
// misses coalesce onto. keep stays nil when the winner kept nothing.
type flight struct {
	done chan struct{}
	keep interface{}
	acc  float64
}

// Serve is the cache-fronted serve — the one lookup-or-compute entry
// point:
//
//  1. a current-epoch entry clearing floor is returned immediately
//     (shared = true);
//  2. otherwise, if another Serve for the same key is computing, wait
//     for its kept result and share it when its accuracy clears this
//     caller's floor (shared = true, counted Coalesced);
//  3. otherwise compute() runs (shared = false).
//
// compute returns the value for its own caller, the accuracy it was
// computed at, and keep: the immutable form to store under key (with
// payload, for refresh) and to hand to coalesced waiters and later
// hits. A nil keep answers this caller only — rejected, failed and
// partial results are never shared or stored; a non-nil err implies it.
// Serve stamps the entry with the epoch read *before* compute ran, so a
// computation that straddles a BumpEpoch is born stale, and tags it with
// what compute added to ctx's cost account, so later hits are credited
// as saved work (no account: the tag is zero and inert).
//
// A waiter the winner's result cannot serve — nothing kept, or kept
// below the waiter's floor — re-enters the lookup instead of computing
// unconditionally: it hits the freshly stored entry, becomes the next
// single winner, or joins the next flight. Coalescing therefore never
// weakens the accuracy contract, and a failed winner (shed by admission
// under overload) does not release a thundering herd — the waiters
// serialize, one computation per round.
//
// The outcome lands on ctx's trace (obs.CacheHit / CacheCoalesced with
// a lookup span; CacheMiss without one — a miss's cost is already
// covered by the computation's own spans). ctx bounds only the waits
// for shared results; compute manages its own context.
func (c *Cache) Serve(ctx context.Context, key uint64, floor float64, payload interface{},
	compute func() (value interface{}, accuracy float64, keep interface{}, err error),
) (value interface{}, accuracy float64, shared bool, err error) {
	tr := obs.TraceFrom(ctx)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	for {
		if v, acc, ok := c.Get(key, floor); ok {
			traceShared(tr, t0, obs.CacheHit)
			return v, acc, true, nil
		}
		c.fmu.Lock()
		fl, inFlight := c.flights[key]
		if !inFlight {
			fl = &flight{done: make(chan struct{})}
			c.flights[key] = fl
			c.fmu.Unlock()
			epoch := c.Epoch()
			acct := cost.AccountFrom(ctx)
			before := acct.Usage()
			value, accuracy, fl.keep, err = compute()
			if err != nil {
				fl.keep = nil
			}
			if fl.keep != nil {
				fl.acc = accuracy
				after := acct.Usage()
				c.storeAt(key, payload, fl.keep, accuracy, epoch, cost.Usage{
					CPUNs:     after.CPUNs - before.CPUNs,
					Scanned:   after.Scanned - before.Scanned,
					QueueNs:   after.QueueNs - before.QueueNs,
					WireBytes: after.WireBytes - before.WireBytes,
				})
			}
			c.fmu.Lock()
			delete(c.flights, key)
			c.fmu.Unlock()
			close(fl.done)
			tr.SetCacheOutcome(obs.CacheMiss)
			return value, accuracy, false, err
		}
		c.fmu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, 0, false, ctx.Err()
		}
		if fl.keep != nil && fl.acc >= floor {
			c.coalesced.Inc()
			traceShared(tr, t0, obs.CacheCoalesced)
			return fl.keep, fl.acc, true, nil
		}
	}
}

// traceShared stamps a hit or coalesced share, and the lookup span that
// was its whole cost, on the caller's trace.
func traceShared(tr *obs.Trace, t0 time.Time, outcome uint8) {
	if tr != nil {
		tr.SetCacheOutcome(outcome)
		tr.Add(obs.SpanCache, -1, t0, time.Since(t0), int64(outcome))
	}
}
