//go:build race

package service

import (
	"context"
	"testing"
	"time"
)

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestReleasedGatherRecordIsPoisoned: under the race detector a gather
// record released by its last reference has no Gather, a deadline long
// past and every subset resolved, so an attempt done on it afterwards
// panics, as does releasing it again; and a record taken from the pool
// again serves a call as a fresh one does.
func TestReleasedGatherRecordIsPoisoned(t *testing.T) {
	tr := &heldTransport{}
	g := NewGather(tr, GatherConfig{N: 2, Prefix: "t", Label: func(int) string { return `c="0"` }})
	defer g.Close()
	c := g.newCall(context.Background(), "payload")
	c.send(0, 0, 0, false)
	c.unref() // the call's reference: the attempt's keeps the record
	if c.g == nil {
		t.Fatal("a record an attempt still holds was released")
	}
	late := tr.sent[0]
	late.Done(Result{Outcome: OutcomeAnswered, Value: 1}) // the last reference
	if c.g != nil || !c.deadline.Equal(releasedDeadline) {
		t.Fatalf("released record reads Gather %p, deadline %v", c.g, c.deadline)
	}
	for i := range c.subs {
		if !c.subs[i].done.Load() {
			t.Fatalf("released record's subset %d reads unresolved", i)
		}
	}
	mustPanic(t, "an attempt done on a released record", func() {
		late.Done(Result{Outcome: OutcomeAnswered, Value: 1})
	})
	mustPanic(t, "a second release", c.release)

	// Whatever the pool hands out next, poisoned or new, serves as new.
	c = g.newCall(context.Background(), "again")
	if c.g != g || !c.deadline.After(time.Now()) || c.subs[0].done.Load() || c.subs[1].done.Load() {
		t.Fatalf("a record taken again reads Gather %p, deadline %v", c.g, c.deadline)
	}
	c.unref()
}
