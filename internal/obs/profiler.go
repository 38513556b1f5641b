package obs

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Profiler captures bounded CPU and heap pprof profiles the moment an
// anomaly fires — an SLO burn rate crossing its budget, a circuit
// breaker opening — so the evidence for a tail regression exists from
// the minute it happened instead of from a later repro attempt.
//
// Guards keep continuous profiling from becoming its own overload:
// at most one capture runs at a time, a cooldown separates captures,
// and finished profiles land in a bounded ring (oldest evicted) served
// by /debug/profiles. A nil *Profiler no-ops everywhere.
type Profiler struct {
	cpuDur   time.Duration
	cooldown time.Duration
	ringSize int
	now      func() time.Time

	mu       sync.Mutex
	lastFire time.Time
	fired    bool
	seq      int
	ring     []CapturedProfile

	running atomic.Bool
	wg      sync.WaitGroup

	// Trigger accounting, exported on /debug/profiles.
	triggered          atomic.Int64
	suppressedCooldown atomic.Int64
	suppressedBusy     atomic.Int64
}

// CapturedProfile is one finished capture. CPU may be empty when the
// runtime's CPU profiler was already claimed (e.g. an in-flight
// /debug/pprof/profile scrape); the heap snapshot still lands.
type CapturedProfile struct {
	Seq    int       `json:"seq"`
	Reason string    `json:"reason"`
	Start  time.Time `json:"start"`
	CPU    []byte    `json:"-"`
	Heap   []byte    `json:"-"`
	Err    string    `json:"err,omitempty"`
}

// ProfileInfo is the /debug/profiles listing entry for one capture.
type ProfileInfo struct {
	Seq       int       `json:"seq"`
	Reason    string    `json:"reason"`
	Start     time.Time `json:"start"`
	CPUBytes  int       `json:"cpu_bytes"`
	HeapBytes int       `json:"heap_bytes"`
	Err       string    `json:"err,omitempty"`
}

// ProfilerView is the /debug/profiles document.
type ProfilerView struct {
	Profiles           []ProfileInfo `json:"profiles"`
	Triggered          int64         `json:"triggered"`
	SuppressedCooldown int64         `json:"suppressed_cooldown"`
	SuppressedBusy     int64         `json:"suppressed_busy"`
}

// NewProfiler returns a profiler keeping the last ringSize captures,
// sampling CPU for cpuDur per capture, with at least cooldown between
// captures. Non-positive arguments select the defaults (8 profiles,
// 250ms CPU, 30s cooldown).
func NewProfiler(ringSize int, cpuDur, cooldown time.Duration) *Profiler {
	if ringSize <= 0 {
		ringSize = 8
	}
	if cpuDur <= 0 {
		cpuDur = 250 * time.Millisecond
	}
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	return &Profiler{
		cpuDur:   cpuDur,
		cooldown: cooldown,
		ringSize: ringSize,
		now:      time.Now,
	}
}

// Trigger requests a capture attributed to reason. It returns true
// when a capture actually started: false means the cooldown window or
// an in-flight capture suppressed it — the fire-once-then-cool-down
// contract under a sustained anomaly. Nil-safe.
func (p *Profiler) Trigger(reason string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	now := p.now()
	if p.fired && now.Sub(p.lastFire) < p.cooldown {
		p.mu.Unlock()
		p.suppressedCooldown.Add(1)
		return false
	}
	if !p.running.CompareAndSwap(false, true) {
		p.mu.Unlock()
		p.suppressedBusy.Add(1)
		return false
	}
	p.lastFire = now
	p.fired = true
	p.seq++
	seq := p.seq
	p.wg.Add(1)
	p.mu.Unlock()
	p.triggered.Add(1)
	go p.capture(seq, reason, now)
	return true
}

// capture runs one bounded CPU + heap capture and files it in the ring.
func (p *Profiler) capture(seq int, reason string, start time.Time) {
	defer p.wg.Done()
	prof := CapturedProfile{Seq: seq, Reason: reason, Start: start}
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		// The runtime CPU profiler is single-owner; losing the race to a
		// /debug/pprof/profile scrape still yields the heap half.
		prof.Err = fmt.Sprintf("cpu profile unavailable: %v", err)
	} else {
		time.Sleep(p.cpuDur)
		pprof.StopCPUProfile()
		prof.CPU = cpu.Bytes()
	}
	var heap bytes.Buffer
	if hp := pprof.Lookup("heap"); hp != nil {
		if err := hp.WriteTo(&heap, 0); err == nil {
			prof.Heap = heap.Bytes()
		}
	}
	p.mu.Lock()
	p.ring = append(p.ring, prof)
	if len(p.ring) > p.ringSize {
		p.ring = p.ring[len(p.ring)-p.ringSize:]
	}
	p.mu.Unlock()
	p.running.Store(false)
}

// Wait blocks until any in-flight capture has filed its profile
// (tests and graceful shutdown).
func (p *Profiler) Wait() {
	if p == nil {
		return
	}
	p.wg.Wait()
}

// Snapshot lists the retained captures, newest last, plus the trigger
// accounting. Nil-safe.
func (p *Profiler) Snapshot() ProfilerView {
	if p == nil {
		return ProfilerView{}
	}
	p.mu.Lock()
	infos := make([]ProfileInfo, 0, len(p.ring))
	for _, c := range p.ring {
		infos = append(infos, ProfileInfo{
			Seq: c.Seq, Reason: c.Reason, Start: c.Start,
			CPUBytes: len(c.CPU), HeapBytes: len(c.Heap), Err: c.Err,
		})
	}
	p.mu.Unlock()
	return ProfilerView{
		Profiles:           infos,
		Triggered:          p.triggered.Load(),
		SuppressedCooldown: p.suppressedCooldown.Load(),
		SuppressedBusy:     p.suppressedBusy.Load(),
	}
}

// Get returns the capture with the given sequence number.
func (p *Profiler) Get(seq int) (CapturedProfile, bool) {
	if p == nil {
		return CapturedProfile{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.ring {
		if c.Seq == seq {
			return c, true
		}
	}
	return CapturedProfile{}, false
}

// WatchBurn polls the tracker every interval and triggers a capture
// whenever any class×signal burn rate over the 1m window crosses its
// budget (burn > 1). It returns a stop function. Nil-safe on both
// receivers.
func (p *Profiler) WatchBurn(t *SLOTracker, interval time.Duration) (stop func()) {
	if p == nil || t == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				p.checkBurn(t)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// checkBurn evaluates every class×signal 1m burn rate once, triggering
// on the first crossing found. Split out so tests (and deterministic
// experiments) can drive the evaluation without the ticker.
func (p *Profiler) checkBurn(t *SLOTracker) bool {
	if p == nil || t == nil {
		return false
	}
	for class := uint8(0); class < 3; class++ {
		for bit, name := range sloSignalNames {
			flag := SLOFlags(1) << uint(bit)
			if b := t.BurnRate(class, flag, 0); b > 1 {
				return p.Trigger(fmt.Sprintf("slo-burn %s %s 1m burn=%.1f",
					ClassLabel(class), name, b))
			}
		}
	}
	return false
}
