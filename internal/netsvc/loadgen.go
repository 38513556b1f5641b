package netsvc

import (
	"sync"
	"time"
)

// OpenLoop offers open-loop load on a precomputed schedule — the slice
// workload.PoissonArrivals returns and cluster.Config.Arrivals consumes:
// arrival i is due arrivalsMs[i] milliseconds after the call, and
// fire(i, intended) runs in its own goroutine at that moment. Arrivals
// never wait for earlier requests, so queueing delay shows up as latency
// instead of silently throttling the offered rate (the closed-loop
// trap), and pacing is against absolute times: a late wake-up is sent
// immediately and never pushes later arrivals back. Callers time each
// request from intended, not from when fire ran, so generator lateness
// is charged to latency (no coordinated omission). It returns the worst
// send lag behind the schedule, after every fire has returned.
func OpenLoop(arrivalsMs []float64, fire func(i int, intended time.Time)) (maxLag time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for i, ms := range arrivalsMs {
		intended := start.Add(time.Duration(ms * float64(time.Millisecond)))
		if wait := time.Until(intended); wait > 0 {
			time.Sleep(wait)
		}
		if lag := time.Since(intended); lag > maxLag {
			maxLag = lag
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(i, intended)
		}()
	}
	wg.Wait()
	return maxLag
}
