package breaker

import (
	"sync"
	"testing"
	"time"
)

// manualClock is a settable test clock.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *manualClock) {
	clk := &manualClock{now: time.Unix(1_000_000, 0)}
	return New(Config{FailThreshold: threshold, Cooldown: cooldown, Now: clk.Now}), clk
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		b.Fail()
		if got := b.State(); got != Closed {
			t.Fatalf("after %d fails state = %v, want closed", i+1, got)
		}
		if !b.Allow() {
			t.Fatalf("closed breaker refused a request after %d fails", i+1)
		}
	}
	b.Fail()
	if got := b.State(); got != Open {
		t.Fatalf("after threshold state = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}
}

// TestClosedPathDoesNotAllocate pins the no-fault hot path: a closed
// breaker's admission check, state read and success feedback allocate
// nothing.
func TestClosedPathDoesNotAllocate(t *testing.T) {
	b := New(Config{})
	allocs := testing.AllocsPerRun(1000, func() {
		if !b.Allow() || b.State() != Closed {
			t.Fatal("breaker left Closed on the no-fault path")
		}
		b.Success()
	})
	if allocs != 0 {
		t.Fatalf("closed-path Allow+State+Success allocates %.1f/op, want 0", allocs)
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	b.Fail()
	b.Fail()
	b.Success()
	b.Fail()
	b.Fail()
	if got := b.State(); got != Closed {
		t.Fatalf("non-consecutive failures tripped the breaker: %v", got)
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Fail()
	if b.State() != Open {
		t.Fatal("breaker not open")
	}
	// Inside the cooldown: fail fast.
	clk.Advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("admitted inside cooldown")
	}
	// Cooldown elapsed: exactly one probe is admitted.
	clk.Advance(2 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open probe refused")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("second request admitted while a probe is in flight")
	}
	// Probe failure re-opens with a fresh cooldown.
	b.Fail()
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("admitted immediately after failed probe")
	}
	// Second probe succeeds: closed again, full threshold restored.
	clk.Advance(time.Second + time.Millisecond)
	if !b.Allow() {
		t.Fatal("second half-open probe refused")
	}
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("state after healed probe = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused a request")
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}

func TestBreakerStragglerFailuresWhileOpenDoNotExtendCooldown(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Fail()
	clk.Advance(900 * time.Millisecond)
	b.Fail() // straggler from before the trip
	clk.Advance(101 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("straggler failure extended the cooldown")
	}
}

func TestBreakerStateChangeHook(t *testing.T) {
	clk := &manualClock{now: time.Unix(1_000_000, 0)}
	var seen []State
	b := New(Config{
		FailThreshold: 1,
		Cooldown:      time.Second,
		Now:           clk.Now,
		OnStateChange: func(s State) { seen = append(seen, s) },
	})
	if !b.Fail() {
		t.Fatal("threshold-1 failure did not report a trip")
	}
	clk.Advance(time.Second + time.Millisecond)
	b.Allow()
	b.Success()
	want := []State{Open, HalfOpen, Closed}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", seen, want)
		}
	}
}
