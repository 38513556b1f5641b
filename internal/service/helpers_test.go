package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"accuracytrader/internal/stats"
)

func TestComplete(t *testing.T) {
	ok := []SubResult{
		{Subset: 0, Value: "a", Latency: time.Millisecond, Hedged: true},
		{Subset: 1, Value: "b", Latency: 2 * time.Millisecond},
	}
	if !Complete(ok) {
		t.Fatal("clean sub-results reported incomplete")
	}
	for _, bad := range [][]SubResult{
		{{Subset: 0, Value: "a"}, {Subset: 1, Err: errors.New("x"), Value: "b"}},
		{{Subset: 0, Value: "a"}, {Subset: 1, Skipped: true}},
		{{Subset: 0, Value: "a"}, {Subset: 1}}, // nil value
	} {
		if Complete(bad) {
			t.Fatalf("incomplete sub-results %+v reported complete", bad)
		}
	}
}

func TestClusterHedgeTriggerColdStartGuard(t *testing.T) {
	floor := 3 * time.Millisecond
	cl, err := New([]Handler{func(ctx context.Context, p interface{}) (interface{}, error) { return nil, nil }},
		Hedged, Options{HedgeFloor: floor})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Fewer than five observations: the trigger holds the floor.
	for i := 0; i < stats.HedgeWarmObservations-1; i++ {
		cl.recordLatency(250 * time.Millisecond)
	}
	if got := cl.EstimatedP95(); got != floor {
		t.Fatalf("cold-start hedge delay = %v, want the %v floor", got, floor)
	}
	// Warm: the estimate tracks the samples immediately.
	cl.recordLatency(250 * time.Millisecond)
	if got := cl.EstimatedP95(); got < 100*time.Millisecond {
		t.Fatalf("warm hedge delay = %v, not tracking 250ms samples", got)
	}
	// The floor still clamps from below once warm.
	fast, err := New([]Handler{func(ctx context.Context, p interface{}) (interface{}, error) { return nil, nil }},
		Hedged, Options{HedgeFloor: floor})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	for i := 0; i < 16; i++ {
		fast.recordLatency(10 * time.Microsecond)
	}
	if got := fast.EstimatedP95(); got != floor {
		t.Fatalf("warm sub-floor estimate = %v, want clamped to %v", got, floor)
	}
}
