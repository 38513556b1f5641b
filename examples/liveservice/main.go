// Liveservice: the paper's Table 1 story on real goroutines and a real
// clock. An open-loop Poisson client drives a fan-out cluster at a light
// and at an overloaded arrival rate; each policy is measured on call
// latency, and AccuracyTrader additionally on how many ranked sets its
// components managed to process (its accuracy proxy).
//
// Under overload the exact policies queue without bound, while
// AccuracyTrader's components adapt: the closer the queueing delay gets
// to the deadline, the fewer sets they process — the request latency
// stays pinned near the deadline.
//
// Run with: go run ./examples/liveservice
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	at "accuracytrader"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/workload"
)

const (
	components = 8
	nGroups    = 6
	fullScan   = 12 * time.Millisecond
	deadline   = 30 * time.Millisecond
	runFor     = 3 * time.Second
)

// sleepEngine is an at.Engine whose processing cost is wall time: the
// synopsis costs fullScan/20, each ranked set fullScan/nGroups. It stands
// in for a real application engine so the demo isolates the latency
// mechanics.
type sleepEngine struct {
	sets atomic.Int64
}

func (e *sleepEngine) ProcessSynopsis() []float64 {
	time.Sleep(fullScan / 20)
	corr := make([]float64, nGroups)
	for i := range corr {
		corr[i] = float64(nGroups - i)
	}
	return corr
}

func (e *sleepEngine) ProcessSet(int) {
	time.Sleep(fullScan / nGroups)
	e.sets.Add(1)
}

func main() {
	for _, rate := range []float64{30, 250} {
		fmt.Printf("=== arrival rate %.0f req/s (component scan %v => utilisation %.2f) ===\n",
			rate, fullScan, rate*fullScan.Seconds())
		runPolicy("Basic (WaitAll)", rate, at.WaitAll, exactHandlers(), nil)
		runPolicy("Request reissue", rate, at.Hedged, exactHandlers(), nil)
		runPolicy("Partial execution", rate, at.PartialGather, exactHandlers(), nil)
		engines := make([]*sleepEngine, components)
		runPolicy("AccuracyTrader", rate, at.WaitAll, atHandlers(engines), engines)
		fmt.Println()
	}
}

func exactHandlers() []at.Handler {
	hs := make([]at.Handler, components)
	for i := range hs {
		hs[i] = func(ctx context.Context, _ interface{}) (interface{}, error) {
			time.Sleep(fullScan)
			return nil, nil
		}
	}
	return hs
}

func atHandlers(engines []*sleepEngine) []at.Handler {
	hs := make([]at.Handler, components)
	for i := range hs {
		e := &sleepEngine{}
		engines[i] = e
		hs[i] = func(ctx context.Context, _ interface{}) (interface{}, error) {
			// Algorithm 1 against the remaining request budget: queueing
			// delay has already consumed part of the deadline.
			budget := deadline
			if dl, ok := ctx.Deadline(); ok {
				budget = time.Until(dl)
			}
			if budget < 0 {
				budget = 0
			}
			trace := at.RunWithDeadline(e, budget, 0)
			return trace.SetsProcessed, nil
		}
	}
	return hs
}

func runPolicy(name string, rate float64, policy at.Policy, handlers []at.Handler, engines []*sleepEngine) {
	callDeadline := 10 * time.Second // generous for the exact policies
	if policy == at.PartialGather {
		callDeadline = deadline
	}
	if engines != nil {
		callDeadline = deadline
	}
	cl, err := at.NewCluster(handlers, policy, at.ClusterOptions{
		Deadline:   callDeadline,
		QueueLen:   4096,
		HedgeFloor: 2 * fullScan,
	})
	if err != nil {
		log.Fatal(err)
	}

	var mu sync.Mutex
	lat := stats.NewLatencyRecorder(1024)
	arrivals := workload.PoissonArrivals(stats.NewRNG(uint64(rate)), rate, runFor.Seconds()*1000)
	netsvc.OpenLoop(arrivals, func(_ int, intended time.Time) {
		if _, err := cl.Call(context.Background(), nil); err != nil {
			return
		}
		d := float64(time.Since(intended)) / float64(time.Millisecond)
		mu.Lock()
		lat.Record(d)
		mu.Unlock()
	})
	cl.Close()

	mu.Lock()
	defer mu.Unlock()
	extra := ""
	if engines != nil {
		total := int64(0)
		for _, e := range engines {
			total += e.sets.Load()
		}
		subOps := int64(lat.Count()) * int64(components)
		if subOps > 0 {
			extra = fmt.Sprintf("  (mean sets processed %.1f of %d)", float64(total)/float64(subOps), nGroups)
		}
	}
	fmt.Printf("%-20s calls %5d   p50 %7.1fms   p99 %8.1fms%s\n",
		name, lat.Count(), lat.Percentile(50), lat.Percentile(99), extra)
}
