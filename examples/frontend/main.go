// Frontend: the accuracy-aware frontend end to end on real goroutines.
// An open-loop Poisson client drives a fan-out cluster through the
// admission → routing → degradation pipeline at a calm and at an
// overloaded arrival rate, with a mixed SLO-class population (20%
// Exact, 30% Bounded{0.90}, 50% BestEffort).
//
// Each component handler reads the frontend-selected ladder level from
// its context and serves a correspondingly coarser (cheaper) synopsis,
// so the feedback loop closes: rising load → EWMA load estimate →
// coarser levels → cheaper sub-operations → bounded queues and tail
// latency. Exact requests keep paying the full price; under pressure
// the queue watermark degrades what it may and sheds what it must.
//
// Run with: go run ./examples/frontend
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	at "accuracytrader"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/workload"
)

const (
	components = 8
	deadline   = 60 * time.Millisecond
	runFor     = 2500 * time.Millisecond
	// Per-sub-operation service time by ladder level, coarse → fine.
	// The finest level saturates the cluster near 1000/8 = 125 req/s.
	coarsest = 1 * time.Millisecond
	finest   = 8 * time.Millisecond
)

var levelCost = []time.Duration{coarsest, 2 * time.Millisecond, 4 * time.Millisecond, finest}

// handler serves one sub-operation at the ladder level the frontend
// selected (finest when the request bypassed the frontend).
func handler(ctx context.Context, _ interface{}) (interface{}, error) {
	level := len(levelCost) - 1
	if lv, ok := at.LevelFrom(ctx); ok && lv >= 0 && lv < len(levelCost) {
		level = lv
	}
	select {
	case <-time.After(levelCost[level]):
		return level, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func classOf(r int) at.SLO {
	switch r % 10 {
	case 0, 1:
		return at.ExactSLO()
	case 2, 3, 4:
		return at.BoundedSLO(0.9)
	default:
		return at.BestEffortSLO()
	}
}

func main() {
	for _, rate := range []float64{40, 400} {
		fmt.Printf("=== offered %.0f req/s (finest scan %v => utilisation %.2f) ===\n",
			rate, finest, rate*finest.Seconds())
		run(rate)
		fmt.Println()
	}
}

func run(rate float64) {
	handlers := make([]at.Handler, components)
	for i := range handlers {
		handlers[i] = handler
	}
	// The short mailbox keeps the worst-case queueing delay at the
	// reject watermark well inside the deadline, so admitted requests
	// finish instead of timing out.
	cl, err := at.NewCluster(handlers, at.WaitAll, at.ClusterOptions{
		Deadline: deadline,
		QueueLen: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := at.NewDegradationController(at.DegradationConfig{
		Levels:             len(levelCost),
		LevelAccuracy:      []float64{0.6, 0.8, 0.9, 0.97},
		InflightSaturation: 4 * components,
	})
	if err != nil {
		log.Fatal(err)
	}
	fe, err := at.NewFrontend(cl, at.FrontendOptions{
		Replicas: 2,
		Router:   at.NewLeastLoaded(),
		Admission: []at.AdmissionPolicy{
			at.NewMaxInflight(4 * components),
			at.NewQueueWatermark(0.25, 0.85),
		},
		Controller: ctrl,
	})
	if err != nil {
		log.Fatal(err)
	}

	type classStats struct {
		lat      *stats.LatencyRecorder
		levelSum int
		count    int
	}
	var mu sync.Mutex
	perClass := map[string]*classStats{}
	arrivals := workload.PoissonArrivals(stats.NewRNG(uint64(rate)), rate, runFor.Seconds()*1000)
	netsvc.OpenLoop(arrivals, func(req int, intended time.Time) {
		res, err := fe.Call(context.Background(), nil, classOf(req))
		if err != nil {
			return // rejected (or closed); counted by frontend stats
		}
		d := float64(time.Since(intended)) / float64(time.Millisecond)
		mu.Lock()
		cs := perClass[res.SLO.String()]
		if cs == nil {
			cs = &classStats{lat: stats.NewLatencyRecorder(256)}
			perClass[res.SLO.String()] = cs
		}
		cs.lat.Record(d)
		cs.levelSum += res.Level
		cs.count++
		mu.Unlock()
	})
	st := fe.Stats()
	fmt.Printf("admitted %d  degraded %d  rejected %d  (smoothed load %.2f)\n",
		st.Admitted, st.Degraded, st.Rejected, ctrl.Load())
	mu.Lock()
	for _, name := range []string{"Exact", "Bounded{0.90}", "BestEffort"} {
		cs := perClass[name]
		if cs == nil {
			continue
		}
		fmt.Printf("%-14s calls %5d   p50 %6.1fms   p99 %6.1fms   mean level %.1f of %d\n",
			name, cs.count, cs.lat.Percentile(50), cs.lat.Percentile(99),
			float64(cs.levelSum)/float64(cs.count), len(levelCost)-1)
	}
	mu.Unlock()
	cl.Close()
}
