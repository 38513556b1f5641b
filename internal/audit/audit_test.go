package audit

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// passReplay echoes the sample's estimates: zero error, every bound
// trivially covers.
func passReplay(_ context.Context, s *Sample) ([]float64, error) {
	return append([]float64(nil), s.Estimates...), nil
}

func newTestAuditor(t *testing.T, cfg Config) *Auditor {
	t.Helper()
	if cfg.Replay == nil {
		cfg.Replay = passReplay
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Microsecond
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

func TestNewRequiresReplay(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoReplay) {
		t.Fatalf("New without Replay = %v, want ErrNoReplay", err)
	}
}

func TestShouldSampleDeterministicAndProportional(t *testing.T) {
	a := newTestAuditor(t, Config{SampleFraction: 0.1})
	hits := 0
	for id := uint64(1); id <= 100_000; id++ {
		first := a.ShouldSample(id)
		if first != a.ShouldSample(id) {
			t.Fatalf("ShouldSample(%d) not deterministic", id)
		}
		if first {
			hits++
		}
	}
	// splitmix64 over sequential IDs: the hit rate tracks the fraction.
	if hits < 9_000 || hits > 11_000 {
		t.Fatalf("sampled %d of 100k at fraction 0.1, want ~10k", hits)
	}
	// Fraction >= 1 samples everything; a nil auditor nothing.
	all := newTestAuditor(t, Config{SampleFraction: 1})
	if !all.ShouldSample(42) || !all.ShouldSample(0) {
		t.Fatal("fraction 1 must sample every id")
	}
	var nilA *Auditor
	if nilA.ShouldSample(42) {
		t.Fatal("nil auditor sampled")
	}
	if nilA.Submit(&Sample{}) {
		t.Fatal("nil auditor accepted a sample")
	}
	nilA.Close()
	if st := nilA.Stats(); st != (Stats{}) {
		t.Fatalf("nil auditor stats = %+v", st)
	}
}

func TestShouldSampleUntracedFallback(t *testing.T) {
	a := newTestAuditor(t, Config{SampleFraction: 0.5})
	// id 0 (tracing off) substitutes a counter: over many calls the rate
	// still tracks the fraction rather than collapsing to one decision.
	hits := 0
	for i := 0; i < 10_000; i++ {
		if a.ShouldSample(0) {
			hits++
		}
	}
	if hits < 4_000 || hits > 6_000 {
		t.Fatalf("untraced sampling hit %d of 10k at fraction 0.5", hits)
	}
}

// TestShouldSampleDoesNotAllocate pins the audit plane's zero cost on
// the hot path: a disabled (nil) auditor's ShouldSample+Submit, and a
// live one's decision for a request it does not sample, allocate
// nothing.
func TestShouldSampleDoesNotAllocate(t *testing.T) {
	var off *Auditor
	if allocs := testing.AllocsPerRun(500, func() {
		if off.ShouldSample(12345) {
			t.Fatal("a nil auditor sampled")
		}
		off.Submit(nil)
	}); allocs != 0 {
		t.Fatalf("nil auditor ShouldSample+Submit allocates %.1f/op, want 0", allocs)
	}
	a := newTestAuditor(t, Config{SampleFraction: 0.05})
	allocs := testing.AllocsPerRun(500, func() {
		a.ShouldSample(0xabcdef12345)
	})
	if allocs != 0 {
		t.Fatalf("ShouldSample allocates %.1f/op, want 0", allocs)
	}
}

func TestJudgeRelErr(t *testing.T) {
	s := &Sample{
		Class:           ClassBounded,
		MinAccuracy:     0.9,
		ClaimedAccuracy: 0.97,
		Estimates:       []float64{100, 200},
		Bounds:          []float64{8, 3},
	}
	exact := []float64{105, 202}
	v := Judge(s, exact)
	wantRealized := 1 - (5.0/105+2.0/202)/2
	if math.Abs(v.RealizedAccuracy-wantRealized) > 1e-12 {
		t.Fatalf("realized = %g, want %g", v.RealizedAccuracy, wantRealized)
	}
	if math.Abs(v.AccuracyGap-(0.97-wantRealized)) > 1e-12 {
		t.Fatalf("gap = %g", v.AccuracyGap)
	}
	// |100-105| <= 8 covers; |200-202| <= 3 covers.
	if v.BoundsTotal != 2 || v.BoundsCovered != 2 {
		t.Fatalf("bounds = %d/%d, want 2/2", v.BoundsCovered, v.BoundsTotal)
	}
	if v.FloorViolated {
		t.Fatal("floor should hold at realized ~0.97")
	}
	// Tight bounds that miss.
	s.Bounds = []float64{1, 1}
	if v := Judge(s, exact); v.BoundsCovered != 0 {
		t.Fatalf("tight bounds covered = %d, want 0", v.BoundsCovered)
	}
	// Floor violation: realized far below the floor.
	bad := &Sample{Class: ClassBounded, MinAccuracy: 0.9, Estimates: []float64{10}}
	if v := Judge(bad, []float64{100}); !v.FloorViolated {
		t.Fatalf("floor not violated: %+v", v)
	}
	// Only Bounded requests have floors.
	be := &Sample{Class: 2, MinAccuracy: 0.9, Estimates: []float64{10}}
	if v := Judge(be, []float64{100}); v.FloorViolated {
		t.Fatal("BestEffort cannot violate a floor")
	}
}

func TestJudgeRelErrEdgeCases(t *testing.T) {
	// Both zero: exact. Only exact zero: full error. Length mismatch:
	// missing elements count as full error.
	v := Judge(&Sample{Estimates: []float64{0, 5}}, []float64{0, 0})
	if got, want := v.RealizedAccuracy, 1-0.5; got != want {
		t.Fatalf("zero handling: realized = %g, want %g", got, want)
	}
	v = Judge(&Sample{Estimates: []float64{7}}, []float64{7, 7})
	if got, want := v.RealizedAccuracy, 0.5; got != want {
		t.Fatalf("length mismatch: realized = %g, want %g", got, want)
	}
	// Empty both ways: no error.
	if v := Judge(&Sample{}, nil); v.RealizedAccuracy != 1 {
		t.Fatalf("empty judge realized = %g, want 1", v.RealizedAccuracy)
	}
	// Relative error caps at 1: realized never goes negative.
	if v := Judge(&Sample{Estimates: []float64{1e9}}, []float64{1}); v.RealizedAccuracy < 0 {
		t.Fatalf("realized = %g, want >= 0", v.RealizedAccuracy)
	}
}

func TestJudgeOverlap(t *testing.T) {
	s := &Sample{Mode: ModeOverlap, Estimates: []float64{1, 2, 3, 4}}
	if v := Judge(s, []float64{2, 3, 9}); math.Abs(v.RealizedAccuracy-2.0/3) > 1e-12 {
		t.Fatalf("recall = %g, want 2/3", v.RealizedAccuracy)
	}
	if v := Judge(s, nil); v.RealizedAccuracy != 1 {
		t.Fatalf("empty-exact recall = %g, want 1", v.RealizedAccuracy)
	}
}

func TestAuditorAccountingInvariant(t *testing.T) {
	var replays atomic.Int64
	a := newTestAuditor(t, Config{
		SampleFraction: 1,
		QueueLen:       4,
		Replay: func(_ context.Context, s *Sample) ([]float64, error) {
			replays.Add(1)
			if s.Workload == "boom" {
				return nil, errors.New("replay failed")
			}
			return passReplay(nil, s)
		},
	})
	for i := 0; i < 50; i++ {
		w := "agg"
		if i%5 == 0 {
			w = "boom"
		}
		a.Submit(&Sample{TraceID: uint64(i + 1), Workload: w, Estimates: []float64{1}})
	}
	if !a.Drain(5 * time.Second) {
		t.Fatalf("drain timed out: %+v", a.Stats())
	}
	a.Close()
	st := a.Stats()
	if st.Sampled != 50 {
		t.Fatalf("sampled = %d, want 50", st.Sampled)
	}
	if st.Sampled != st.Audited+st.SkippedStale+st.ReplayErrs+st.Dropped {
		t.Fatalf("accounting broken: %+v", st)
	}
	if st.ReplayErrs == 0 {
		t.Fatalf("no replay errors recorded: %+v", st)
	}
	// Closed auditor: further submits are counted dropped, not lost.
	a.Submit(&Sample{TraceID: 999})
	st2 := a.Stats()
	if st2.Sampled != 51 || st2.Dropped != st.Dropped+1 {
		t.Fatalf("post-close submit accounting: %+v", st2)
	}
}

func TestAuditorGateRequeues(t *testing.T) {
	var open atomic.Bool
	var replays atomic.Int64
	a := newTestAuditor(t, Config{
		SampleFraction: 1,
		Gate:           func() bool { return open.Load() },
		Replay: func(_ context.Context, s *Sample) ([]float64, error) {
			replays.Add(1)
			return passReplay(nil, s)
		},
	})
	a.Submit(&Sample{TraceID: 1, Estimates: []float64{1}})
	time.Sleep(20 * time.Millisecond)
	if replays.Load() != 0 {
		t.Fatal("replay ran with the gate closed")
	}
	open.Store(true)
	if !a.Drain(5 * time.Second) {
		t.Fatalf("drain after gate opened: %+v", a.Stats())
	}
	if replays.Load() != 1 || a.Stats().Audited != 1 {
		t.Fatalf("replays = %d, stats = %+v", replays.Load(), a.Stats())
	}
}

func TestAuditorSkipsStaleEpoch(t *testing.T) {
	var epoch atomic.Uint64
	epoch.Store(7)
	swapDuringReplay := atomic.Bool{}
	a := newTestAuditor(t, Config{
		SampleFraction: 1,
		Epoch:          func() uint64 { return epoch.Load() },
		Replay: func(_ context.Context, s *Sample) ([]float64, error) {
			if swapDuringReplay.Load() {
				epoch.Store(epoch.Load() + 1)
			}
			return passReplay(nil, s)
		},
	})
	// Pre-replay staleness: the sample's epoch is already behind.
	a.Submit(&Sample{TraceID: 1, Epoch: 6, Estimates: []float64{1}})
	// Current epoch: audits cleanly.
	a.Submit(&Sample{TraceID: 2, Epoch: 7, Estimates: []float64{1}})
	if !a.Drain(5 * time.Second) {
		t.Fatalf("drain: %+v", a.Stats())
	}
	st := a.Stats()
	if st.SkippedStale != 1 || st.Audited != 1 {
		t.Fatalf("stats = %+v, want 1 stale + 1 audited", st)
	}
	// Mid-replay swap: the exact answer saw newer data, so the verdict
	// must be discarded even though the replay succeeded.
	swapDuringReplay.Store(true)
	a.Submit(&Sample{TraceID: 3, Epoch: 7, Estimates: []float64{1}})
	if !a.Drain(5 * time.Second) {
		t.Fatalf("drain: %+v", a.Stats())
	}
	st = a.Stats()
	if st.SkippedStale != 2 || st.Audited != 1 {
		t.Fatalf("mid-replay swap not skipped: %+v", st)
	}
}

func TestAuditorCalibrationTables(t *testing.T) {
	var onVerdicts atomic.Int64
	a := newTestAuditor(t, Config{
		SampleFraction: 1,
		Replay: func(_ context.Context, s *Sample) ([]float64, error) {
			// Exact is 10% above every estimate: realized ~0.909.
			out := make([]float64, len(s.Estimates))
			for i, e := range s.Estimates {
				out[i] = e * 1.1
			}
			return out, nil
		},
		OnVerdict: func(_ *Sample, _ Verdict) { onVerdicts.Add(1) },
	})
	for i := 0; i < 10; i++ {
		a.Submit(&Sample{
			TraceID:         uint64(i + 1),
			Workload:        "agg",
			Level:           2,
			Class:           ClassBounded,
			MinAccuracy:     0.95, // violated: realized ~0.909
			ClaimedAccuracy: 0.99,
			Estimates:       []float64{100},
			Bounds:          []float64{20}, // |100-110| <= 20: covered
		})
	}
	a.Submit(&Sample{
		TraceID: 99, Workload: "search", Level: 0, Mode: ModeOverlap,
		Estimates: []float64{1, 2}, ClaimedAccuracy: 1,
	})
	if !a.Drain(5 * time.Second) {
		t.Fatalf("drain: %+v", a.Stats())
	}
	tables := a.Tables()
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}
	// Sorted by workload: agg before search.
	agg := tables[0]
	if agg.Workload != "agg" || agg.Level != 2 || agg.Samples != 10 {
		t.Fatalf("agg table: %+v", agg)
	}
	if agg.FloorViolations != 10 {
		t.Fatalf("violations = %d, want 10", agg.FloorViolations)
	}
	if agg.BoundCoverage != 1 || agg.BoundsTotal != 10 {
		t.Fatalf("bound coverage: %+v", agg)
	}
	wantRealized := 1 - (10.0 / 110.0)
	if math.Abs(agg.MeanRealized-wantRealized) > 1e-9 || agg.MeanClaimed != 0.99 {
		t.Fatalf("means: realized %g claimed %g", agg.MeanRealized, agg.MeanClaimed)
	}
	var histSum int64
	for _, c := range agg.AccuracyHistogram {
		histSum += c
	}
	if histSum != 10 {
		t.Fatalf("histogram mass = %d, want 10", histSum)
	}
	// Search workload shipped no bounds: coverage is the -1 sentinel.
	search := tables[1]
	if search.Workload != "search" || search.BoundCoverage != -1 {
		t.Fatalf("search table: %+v", search)
	}
	deadline := time.Now().Add(2 * time.Second)
	for onVerdicts.Load() != 11 {
		if time.Now().After(deadline) {
			t.Fatalf("OnVerdict fired %d times, want 11", onVerdicts.Load())
		}
		time.Sleep(time.Millisecond)
	}
	rep := a.Report()
	if rep.Stats.Audited != 11 || len(rep.Tables) != 2 {
		t.Fatalf("report: %+v", rep)
	}
	if a.Stats().Violations != 10 {
		t.Fatalf("violations counter = %d", a.Stats().Violations)
	}
}

// TestAuditorCloseDuringSubmits races Close against live Submits and
// table reads; run with -race. The accounting invariant must hold after.
func TestAuditorCloseDuringSubmits(t *testing.T) {
	a := newTestAuditor(t, Config{SampleFraction: 1, QueueLen: 8})
	var wg sync.WaitGroup
	var submitted atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a.Submit(&Sample{TraceID: uint64(i + 1), Estimates: []float64{1}})
				submitted.Add(1)
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	a.Close()
	a.Close() // idempotent
	wg.Wait()
	// Samples queued at the instant of Close are drained into dropped by
	// Close itself, but the worker may still have been mid-audit; give
	// the final counter updates a beat.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := a.Stats()
		if st.Sampled == submitted.Load() &&
			st.Sampled == st.Audited+st.SkippedStale+st.ReplayErrs+st.Dropped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accounting never settled: %+v (submitted %d)", st, submitted.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkAuditNotSampled is the CI-guarded zero-alloc check for the
// hot path with auditing enabled: the per-request cost for the ~95% of
// requests the sampler passes over is one hash and one compare.
func BenchmarkAuditNotSampled(b *testing.B) {
	a, err := New(Config{SampleFraction: 0.0001, Replay: passReplay})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		if a.ShouldSample(uint64(i)*2654435761 + 12345) {
			n++
		}
	}
	_ = n
}
