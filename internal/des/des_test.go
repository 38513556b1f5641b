package des

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(10, func() { order = append(order, 1) })
	s.At(5, func() { order = append(order, 0) })
	s.At(10, func() { order = append(order, 2) }) // same time: scheduling order
	s.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := New()
	var times []float64
	s.After(3, func() {
		times = append(times, s.Now())
		s.After(4, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 3 || times[1] != 7 {
		t.Fatalf("times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	fired := 0
	s.At(5, func() { fired++ })
	s.At(15, func() { fired++ })
	s.RunUntil(10)
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %v", s.Now())
	}
	s.Run()
	if fired != 2 || s.Now() != 15 {
		t.Fatalf("final state: fired=%d now=%v", fired, s.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.At(5, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.After(-1, func() {})
}

func TestManyEventsDeterministic(t *testing.T) {
	run := func() []float64 {
		s := New()
		var log []float64
		for i := 0; i < 1000; i++ {
			tm := float64((i * 7919) % 500)
			s.At(tm, func() { log = append(log, s.Now()) })
		}
		s.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != 1000 || len(b) != 1000 {
		t.Fatal("lost events")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d", i)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("time went backwards")
		}
	}
}
