package frontend

import "testing"

func TestMaxInflight(t *testing.T) {
	m := NewMaxInflight(3)
	if d := m.Admit(0, Load{Inflight: 2}); d != Admit {
		t.Fatalf("below limit = %v", d)
	}
	if d := m.Admit(0, Load{Inflight: 3}); d != Reject {
		t.Fatalf("at limit = %v", d)
	}
	if d := m.Admit(0, Load{Inflight: 10}); d != Reject {
		t.Fatalf("above limit = %v", d)
	}
	// A non-positive limit clamps to 1 instead of rejecting everything.
	if d := NewMaxInflight(0).Admit(0, Load{Inflight: 0}); d != Admit {
		t.Fatalf("clamped limit = %v", d)
	}
}

func TestQueueWatermark(t *testing.T) {
	q := NewQueueWatermark(0.5, 0.9)
	if d := q.Admit(0, Load{MaxQueueFrac: 0.2}); d != Admit {
		t.Fatalf("calm = %v", d)
	}
	if d := q.Admit(0, Load{MaxQueueFrac: 0.5}); d != Degrade {
		t.Fatalf("at degrade mark = %v", d)
	}
	if d := q.Admit(0, Load{MaxQueueFrac: 0.95}); d != Reject {
		t.Fatalf("above reject mark = %v", d)
	}
	// Inverted watermarks are clamped into order.
	inv := NewQueueWatermark(0.9, 0.5)
	if d := inv.Admit(0, Load{MaxQueueFrac: 0.7}); d != Reject {
		t.Fatalf("inverted marks = %v", d)
	}
}

func TestChainMostSevereWins(t *testing.T) {
	l := Load{Inflight: 10, MaxQueueFrac: 0.6}
	policies := []AdmissionPolicy{
		NewQueueWatermark(0.5, 0.99), // degrade
		NewMaxInflight(100),          // admit
	}
	if d := Chain(0, l, policies); d != Degrade {
		t.Fatalf("chain = %v", d)
	}
	policies = append(policies, NewMaxInflight(5)) // reject
	if d := Chain(0, l, policies); d != Reject {
		t.Fatalf("chain with reject = %v", d)
	}
	if d := Chain(0, l, nil); d != Admit {
		t.Fatalf("empty chain = %v", d)
	}
}
