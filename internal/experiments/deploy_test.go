package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/breaker"
	"accuracytrader/internal/faultinject"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/wire"
)

// leakCheck snapshots the goroutine count and returns a func asserting
// the count settles back near the snapshot.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
	}
}

// stubDeployment is two component servers answering every sub-operation
// with a one-key aggregation result, behind a default front server.
func stubDeployment() deployment {
	return deployment{n: 2, front: &netsvc.ServerOptions{},
		handler: shared(func(context.Context, *wire.Request) *wire.SubReply {
			return &wire.SubReply{Status: wire.StatusOK, Level: wire.NoLevel,
				Agg: &wire.AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0}, CntVar: []float64{0}}}
		})}
}

// TestLoadFoldsEveryRequestOnce offers an open-loop and a closed-loop
// load to a small loopback deployment: each folds every request index
// exactly once, one at a time, and closing the stack leaves no goroutine
// behind.
func TestLoadFoldsEveryRequestOnce(t *testing.T) {
	checkLeaks := leakCheck(t)
	st, err := stubDeployment().start()
	if err != nil {
		t.Fatal(err)
	}
	const open, closed = 20, 30
	at := make([]float64, open)
	for i := range at {
		at[i] = float64(i) / 2
	}
	request := asks(agg.Query{Op: agg.Sum, Lo: 0, Hi: 1}, wire.NoLevel, stamp{slo: frontend.BestEffortSLO()})
	for _, l := range []load{
		{at: at, request: request},
		{n: closed, workers: 4, request: request, timeout: 5 * time.Second},
	} {
		seen := map[int]int{} // unsynchronized: run must serialize its folds
		if _, err := l.run(st.target, func(r int, _ float64, o outcome) error {
			seen[r]++
			return o.failed()
		}); err != nil {
			t.Fatal(err)
		}
		n := max(len(l.at), l.n)
		for r := 0; r < n; r++ {
			if seen[r] != 1 {
				t.Errorf("request %d of %d folded %d times, want once", r, n, seen[r])
			}
		}
		if len(seen) != n {
			t.Errorf("%d requests folded, want %d", len(seen), n)
		}
	}
	st.Close()
	checkLeaks()
}

// TestLoadStopsAtFirstFoldError: a fold error ends the load with an
// error naming the request, and no outcome after it is folded.
func TestLoadStopsAtFirstFoldError(t *testing.T) {
	checkLeaks := leakCheck(t)
	st, err := stubDeployment().start()
	if err != nil {
		t.Fatal(err)
	}
	folded := 0
	_, err = load{n: 10, request: asks(agg.Query{Op: agg.Sum, Lo: 0, Hi: 1}, wire.NoLevel, stamp{slo: frontend.BestEffortSLO()})}.
		run(st.target, func(r int, _ float64, _ outcome) error {
			folded++
			if r == 3 {
				return fmt.Errorf("refused")
			}
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "request 3: refused") || folded != 4 {
		t.Errorf("load error %v after %d folds, want request 3's after 4", err, folded)
	}
	st.Close()
	checkLeaks()
}

// TestHealWaitsForTheConnection crashes one component, heals it and
// then requires every request to be answered in full: the heal waits on
// the breaker alone, which a crash trips and only a landed probe dial
// re-closes, so a closed breaker means the component is reachable.
func TestHealWaitsForTheConnection(t *testing.T) {
	d := stubDeployment()
	d.fabric = faultinject.NewFabric(1)
	st, err := d.start()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	call := load{n: 8, timeout: 5 * time.Second,
		request: asks(agg.Query{Op: agg.Sum, Lo: 0, Hi: 1}, wire.NoLevel, stamp{slo: frontend.BestEffortSLO()})}
	st.fabric.Script(st.Addrs[0]).Set(faultinject.Crash)
	if _, err := call.run(st.target, func(_ int, _ float64, o outcome) error { return o.err }); err != nil {
		t.Fatal(err)
	}
	if s := st.Agg.BreakerState(0); s == breaker.Closed {
		t.Fatal("component 0's breaker still closed while it was down")
	}
	if _, err := st.heal(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := call.run(st.target, nil); err != nil {
		t.Errorf("after heal: %v", err)
	}
}
