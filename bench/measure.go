package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"
)

const (
	segments = 10 // equal measured segments of a closed-loop pass
	// callTimeout bounds one op so a wedged deployment fails the run
	// instead of hanging it.
	callTimeout = 5 * time.Second
)

// pass is everything measured over one execution of an op sequence.
type pass struct {
	counts
	okOps      int
	accSum     float64
	accN       int
	readLatUs  [][]float64 // per segment (one segment for the open loop)
	writeLatUs []float64
	cpuUsPerOp []float64 // per segment
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	lagUs      []float64 // open loop: actual minus intended send
	violations []string  // first few, verbatim
	nViolation int

	cached, degraded int
	levelSum, levelN int

	publishNs, compactNs []float64 // harness-side data swaps
}

// probe is the resource snapshot taken at a segment boundary.
type probe struct {
	at  time.Time
	cpu time.Duration
	mem runtime.MemStats
}

func takeProbe() probe {
	var p probe
	runtime.ReadMemStats(&p.mem)
	p.cpu = processCPU()
	p.at = time.Now()
	return p
}

// processCPU is user+system CPU time of this process, which hosts the
// load generator and the whole deployment.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// account folds the interval between two probes into the pass.
func (p *pass) account(a, b probe, ops int) {
	p.wall += b.at.Sub(a.at)
	p.cpuUsPerOp = append(p.cpuUsPerOp, float64(b.cpu-a.cpu)/1e3/float64(ops))
	p.mallocs += b.mem.Mallocs - a.mem.Mallocs
	p.allocBytes += b.mem.TotalAlloc - a.mem.TotalAlloc
	p.gcCycles += b.mem.NumGC - a.mem.NumGC
	p.gcPauseNs += b.mem.PauseTotalNs - a.mem.PauseTotalNs
}

// record folds one op's outcome into the pass. seg is the segment the
// op's latency belongs to.
func (p *pass) record(seg int, o op, r *opResult, latUs float64) {
	p.ops++
	if r.ok {
		p.okOps++
	}
	if r.violation != "" {
		p.nViolation++
		if len(p.violations) < 8 {
			p.violations = append(p.violations, r.violation)
		}
	}
	switch {
	case r.read:
		p.reads++
		p.readLatUs[seg] = append(p.readLatUs[seg], latUs)
		if r.answered {
			p.accSum += r.accuracy
			p.accN++
		}
		if r.cached {
			p.cached++
		}
		if r.degraded {
			p.degraded++
		}
		if r.level >= 0 {
			p.levelSum += r.level
			p.levelN++
		}
	case o.kind == opIngest:
		p.writeLatUs = append(p.writeLatUs, latUs)
	case o.kind == opPublish:
		p.publishNs = append(p.publishNs, r.swapNs)
	case o.kind == opCompact:
		p.compactNs = append(p.compactNs, r.swapNs)
	}
}

// opHook observes every measured op of a traced pass.
type opHook func(i int, o op, r *opResult, start, end time.Time)

// runClosed executes ops one at a time: the first warm ops are
// discarded, the rest run as equal segments with a forced GC before
// each, so every timed metric has one value per segment and the run
// reports the median over segments.
func runClosed(in *instance, ops []op, warm int, hook opHook) *pass {
	p := &pass{readLatUs: make([][]float64, segments)}
	var res opResult
	do := func(i int) (time.Time, time.Time) {
		res = opResult{}
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		t0 := time.Now()
		in.exec(ctx, i, ops[i], t0, &res)
		t1 := time.Now()
		cancel()
		return t0, t1
	}
	for i := 0; i < warm; i++ {
		do(i)
	}
	per := (len(ops) - warm) / segments
	for s := 0; s < segments; s++ {
		p.readLatUs[s] = make([]float64, 0, per)
		runtime.GC()
		a := takeProbe()
		for i := warm + s*per; i < warm+(s+1)*per; i++ {
			t0, t1 := do(i)
			p.record(s, ops[i], &res, float64(t1.Sub(t0))/1e3)
			if hook != nil {
				hook(i, ops[i], &res, t0, t1)
			}
		}
		p.account(a, takeProbe(), per)
	}
	return p
}

// runOpen dispatches every op at its scheduled offset from one
// goroutine, whatever the state of earlier ops; latency counts from
// the intended send time, so a stall is charged to every request it
// delays. The first warm arrivals are sent but not measured.
func runOpen(in *instance, ops []op, schedule []time.Duration, warm int, hook opHook) *pass {
	p := &pass{readLatUs: make([][]float64, 1)}
	type done struct {
		res        opResult
		start, end time.Time
	}
	results := make([]done, len(ops))
	lag := make([]float64, len(ops))
	var wg sync.WaitGroup
	runtime.GC()
	begin := time.Now()
	var a probe
	for i := range ops {
		if i == warm {
			a = takeProbe()
		}
		intended := begin.Add(schedule[i])
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		lag[i] = float64(time.Since(intended)) / 1e3
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
			defer cancel()
			d := &results[i]
			d.start = intended
			in.exec(ctx, i, ops[i], intended, &d.res)
			d.end = time.Now()
		}(i)
	}
	wg.Wait()
	p.account(a, takeProbe(), len(ops)-warm)
	for i := warm; i < len(ops); i++ {
		d := &results[i]
		p.record(0, ops[i], &d.res, float64(d.end.Sub(d.start))/1e3)
		if hook != nil {
			hook(i, ops[i], &d.res, d.start, d.end)
		}
	}
	p.lagUs = lag[warm:]
	return p
}

// liveHeapMB returns the live heap with the deployment still up. It
// first lets in-flight stragglers finish (a modelled stall outlives its
// request) and collects twice, so sync.Pool contents, which survive one
// collection, do not count.
func liveHeapMB() float64 {
	time.Sleep(150 * time.Millisecond)
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
