package obs

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestProfilerTriggerCooldown(t *testing.T) {
	p := NewProfiler(4, time.Millisecond, 10*time.Second)
	now := time.Unix(1_700_000_000, 0)
	p.now = func() time.Time { return now }

	if !p.Trigger("first anomaly") {
		t.Fatal("first trigger must start a capture")
	}
	p.Wait()
	// A sustained anomaly inside the cooldown window fires exactly once.
	if p.Trigger("still burning") {
		t.Fatal("trigger inside cooldown must be suppressed")
	}
	now = now.Add(11 * time.Second)
	if !p.Trigger("second anomaly") {
		t.Fatal("trigger after cooldown must fire again")
	}
	p.Wait()

	v := p.Snapshot()
	if v.Triggered != 2 || v.SuppressedCooldown != 1 {
		t.Fatalf("accounting = %+v", v)
	}
	if len(v.Profiles) != 2 {
		t.Fatalf("ring holds %d captures, want 2", len(v.Profiles))
	}
	if v.Profiles[0].Reason != "first anomaly" || v.Profiles[1].Reason != "second anomaly" {
		t.Fatalf("reasons = %+v", v.Profiles)
	}
	for _, info := range v.Profiles {
		if info.HeapBytes == 0 {
			t.Fatalf("capture %d lost its heap profile: %+v", info.Seq, info)
		}
		// The CPU half can lose the race for the runtime's single-owner
		// CPU profiler (e.g. go test -cpuprofile); then Err says so.
		if info.Err == "" && info.CPUBytes == 0 {
			t.Fatalf("capture %d has neither CPU bytes nor an error", info.Seq)
		}
	}
}

func TestProfilerRingEvictsOldest(t *testing.T) {
	p := NewProfiler(2, time.Millisecond, time.Second)
	now := time.Unix(1_700_000_000, 0)
	p.now = func() time.Time { return now }
	for i := 0; i < 3; i++ {
		if !p.Trigger("anomaly") {
			t.Fatalf("trigger %d suppressed", i)
		}
		p.Wait()
		now = now.Add(2 * time.Second)
	}
	v := p.Snapshot()
	if len(v.Profiles) != 2 || v.Profiles[0].Seq != 2 || v.Profiles[1].Seq != 3 {
		t.Fatalf("ring = %+v, want seqs 2,3", v.Profiles)
	}
	if _, ok := p.Get(1); ok {
		t.Fatal("evicted capture still retrievable")
	}
	if c, ok := p.Get(3); !ok || c.Seq != 3 {
		t.Fatalf("Get(3) = %+v, %v", c, ok)
	}
}

func TestProfilerBusySuppression(t *testing.T) {
	// Cooldown of 1ns so the second trigger reaches the single-capture
	// guard while the first capture's 100ms CPU sample is still running.
	p := NewProfiler(4, 100*time.Millisecond, time.Nanosecond)
	now := time.Unix(1_700_000_000, 0)
	p.now = func() time.Time { return now }
	if !p.Trigger("first") {
		t.Fatal("first trigger must start")
	}
	now = now.Add(time.Millisecond)
	if p.Trigger("concurrent") {
		t.Fatal("trigger during an in-flight capture must be suppressed")
	}
	p.Wait()
	v := p.Snapshot()
	if v.SuppressedBusy != 1 {
		t.Fatalf("suppressed_busy = %d, want 1", v.SuppressedBusy)
	}
	now = now.Add(time.Millisecond)
	if !p.Trigger("after") {
		t.Fatal("trigger after the capture finished must fire")
	}
	p.Wait()
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	if p.Trigger("x") {
		t.Fatal("nil profiler must not fire")
	}
	p.Wait()
	if v := p.Snapshot(); len(v.Profiles) != 0 || v.Triggered != 0 {
		t.Fatalf("nil snapshot = %+v", v)
	}
	if _, ok := p.Get(1); ok {
		t.Fatal("nil Get must miss")
	}
	stop := p.WatchBurn(NewSLOTracker(SLOBudgets{}), time.Millisecond)
	stop()
	stop() // idempotent
	if live := NewProfiler(0, 0, 0); live.checkBurn(nil) {
		t.Fatal("checkBurn(nil tracker) must not fire")
	}
}

func TestProfilerCheckBurnFiresOnceThenCoolsDown(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewSLOTracker(SLOBudgets{DeadlineMiss: 0.01})
	tr.now = func() time.Time { return now }
	p := NewProfiler(4, time.Millisecond, 30*time.Second)
	p.now = func() time.Time { return now }

	if p.checkBurn(tr) {
		t.Fatal("no traffic: nothing should burn")
	}
	// One miss in one request at a 1% budget: burn 100x, well past 1.
	tr.recordAt(now, 1, "acme", SLODeadlineMiss, true)
	if !p.checkBurn(tr) {
		t.Fatal("burn > 1 must trigger a capture")
	}
	p.Wait()
	// The burn persists, but the cooldown holds the profiler back.
	if p.checkBurn(tr) {
		t.Fatal("sustained burn inside cooldown must not re-fire")
	}
	v := p.Snapshot()
	if len(v.Profiles) != 1 {
		t.Fatalf("profiles = %d, want 1", len(v.Profiles))
	}
	if !strings.Contains(v.Profiles[0].Reason, "deadline_miss") ||
		!strings.Contains(v.Profiles[0].Reason, "Bounded") {
		t.Fatalf("reason = %q", v.Profiles[0].Reason)
	}
	if v.SuppressedCooldown != 1 {
		t.Fatalf("suppressed_cooldown = %d, want 1", v.SuppressedCooldown)
	}
}

// TestProfilerWatchBurnPolls drives the watcher against a sustained
// burn: the profiler fires once, suppresses at least five re-triggers
// inside the cooldown, re-arms once the clock passes it, and the
// captures carry a heap profile and an slo-burn reason.
func TestProfilerWatchBurnPolls(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewSLOTracker(SLOBudgets{Degraded: 0.01})
	tr.now = func() time.Time { return now }
	tr.recordAt(now, 2, "", SLODegraded, true)
	const cooldown = time.Minute
	p := NewProfiler(4, time.Millisecond, cooldown)
	// The cooldown clock moves only when the test says so; the watcher's
	// ticker and the CPU capture run on real time.
	var skew atomic.Int64
	p.now = func() time.Time { return now.Add(time.Duration(skew.Load())) }
	stop := p.WatchBurn(tr, time.Millisecond)
	defer stop()
	waitFor := func(what string, cond func(ProfilerView) bool) ProfilerView {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			v := p.Snapshot()
			if cond(v) {
				return v
			}
			if time.Now().After(deadline) {
				t.Fatalf("watcher never %s: %+v", what, v)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("triggered on a burning SLO", func(v ProfilerView) bool { return v.Triggered >= 1 })
	mid := waitFor("suppressed re-triggers in cooldown", func(v ProfilerView) bool { return v.SuppressedCooldown >= 5 })
	if mid.Triggered != 1 {
		t.Fatalf("%d captures inside the cooldown window, want exactly 1", mid.Triggered)
	}
	skew.Store(int64(cooldown + time.Second))
	waitFor("re-armed after the cooldown", func(v ProfilerView) bool { return v.Triggered >= 2 })
	stop()
	p.Wait()
	end := p.Snapshot()
	if end.Triggered != 2 {
		t.Fatalf("fired %d times, want 2 (once + re-arm)", end.Triggered)
	}
	for _, prof := range end.Profiles {
		if prof.HeapBytes == 0 || !strings.HasPrefix(prof.Reason, "slo-burn") {
			t.Fatalf("capture %+v: want a heap profile and an slo-burn reason", prof)
		}
	}
}
