package service_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"accuracytrader/internal/breaker"
	"accuracytrader/internal/service"
)

func label(i int) string { return fmt.Sprintf(`c="%d"`, i) }

// TestWarmGatherCallAllocations: once its pool holds a record, a Call
// allocates exactly its returned slice, under every policy, whether or
// not the caller's context has a deadline: the record, its subsets, its
// reply channel and its timer are recycled, and no context is derived.
func TestWarmGatherCallAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (sync.Pool drops at random)")
	}
	r := service.Result{Outcome: service.OutcomeAnswered, Value: 1, Latency: time.Millisecond}
	withDeadline, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, p := range allPolicies {
		g := service.NewGather(syncTransport{func() service.Result { return r }}, service.GatherConfig{
			N: 8, Policy: p, Prefix: "t", Label: label,
		})
		defer g.Close()
		for _, c := range []struct {
			name string
			ctx  context.Context
		}{{"no deadline", context.Background()}, {"a deadline", withDeadline}} {
			got := testing.AllocsPerRun(200, func() {
				if subs, err := g.Call(c.ctx, nil); err != nil || !service.Complete(subs) {
					t.Fatalf("Call: %+v, %v", subs, err)
				}
			})
			if got != 1 {
				t.Errorf("policy %d, %s: a warm Call allocates %v times, want 1 (its result)", p, c.name, got)
			}
		}
	}
}

// lateTransport answers every replica at once with the payload it
// carries, and holds every primary until the next call sends its primary
// of the same subset: the held one then answers with its own call's
// payload, after its call returned and while the next is in flight.
type lateTransport struct {
	mu   sync.Mutex
	held map[int]heldAttempt
}

type heldAttempt struct {
	a       service.Attempt
	payload interface{}
}

func (*lateTransport) QueueDepth(int) int               { return 0 }
func (*lateTransport) Probe(int, *breaker.Breaker) bool { return false }

func (t *lateTransport) Send(_ context.Context, a service.Attempt, payload interface{}) bool {
	if a.Hedge {
		a.Done(service.Result{Outcome: service.OutcomeAnswered, Value: payload})
		return true
	}
	t.mu.Lock()
	prev, late := t.held[a.Subset]
	t.held[a.Subset] = heldAttempt{a, payload}
	t.mu.Unlock()
	if late {
		prev.a.Done(service.Result{Outcome: service.OutcomeAnswered, Value: prev.payload})
	}
	return true
}

// TestLateAttemptsNeverTouchTheNextCall: back-to-back Hedged calls on one
// Gather, each replica winning its subset and each losing primary
// answering only after its call returned, in the middle of the next one.
// A call's record stays out of the pool until its last attempt is done,
// so every call's results carry its own payload and nothing else.
func TestLateAttemptsNeverTouchTheNextCall(t *testing.T) {
	const subsets, calls = 4, 64
	tr := &lateTransport{held: map[int]heldAttempt{}}
	g := service.NewGather(tr, service.GatherConfig{
		N: subsets, Policy: service.Hedged, HedgeFloor: time.Millisecond, Prefix: "t", Label: label,
	})
	defer g.Close()
	for k := 0; k < calls; k++ {
		subs, err := g.Call(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		// Errorf, not Fatalf: the calls go on, so a record recycled too
		// early is also answered while it sits released.
		for i, sr := range subs {
			if sr.Value != k || sr.Err != nil || !sr.Hedged {
				t.Errorf("call %d, subset %d: %+v, want its replica's answer %d", k, i, sr, k)
				break
			}
		}
	}
	for _, h := range tr.held {
		h.a.Done(service.Result{Outcome: service.OutcomeAnswered, Value: h.payload})
	}
}
