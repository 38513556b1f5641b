package breaker

import (
	"sync"
	"time"

	"accuracytrader/internal/stats"
)

// State is a breaker's position in the closed → open → half-open cycle.
type State uint8

// The breaker states.
const (
	// Closed admits every request; consecutive failures are counted.
	Closed State = iota
	// Open fails every request fast until the cooldown elapses.
	Open
	// HalfOpen admits exactly one probe; its outcome picks the next
	// state.
	HalfOpen
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	default:
		return "half-open"
	}
}

// Config parametrizes a Breaker.
type Config struct {
	// FailThreshold is the consecutive-failure count that trips Closed
	// → Open (default 3).
	FailThreshold int
	// Cooldown is how long Open fails fast before admitting a half-open
	// probe (default 200ms). A healed peer is rediscovered within one
	// cooldown of the first post-heal probe.
	Cooldown time.Duration
	// Now is the clock (default time.Now); injectable so state-machine
	// tests run on a manual clock instead of sleeping.
	Now func() time.Time
	// OnStateChange, when set, is invoked (outside the breaker's lock)
	// after every state transition — the hook metrics and reconnect
	// logic attach to.
	OnStateChange func(State)
}

func (c Config) withDefaults() Config {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 200 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is one peer's circuit breaker. The zero value is not usable;
// construct with New. Safe for concurrent use.
type Breaker struct {
	mu       sync.Mutex
	cfg      Config
	state    State
	fails    int
	openedAt time.Time
	probing  bool      // a half-open probe is in flight
	probeAt  time.Time // when the probe slot was claimed
	opens    int64
}

// New returns a closed breaker.
func New(cfg Config) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a request may proceed. Closed always admits.
// Open admits nothing until the cooldown has elapsed, at which point
// the breaker turns half-open and this call claims the single probe
// slot; further Allow calls fail fast until the probe resolves via
// Success or Fail.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	switch b.state {
	case Closed:
		b.mu.Unlock()
		return true
	case Open:
		now := b.cfg.Now()
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			b.mu.Unlock()
			return false
		}
		b.state = HalfOpen
		b.probing = true
		b.probeAt = now
		b.mu.Unlock()
		b.notify(HalfOpen)
		return true
	default: // HalfOpen
		now := b.cfg.Now()
		if b.probing && now.Sub(b.probeAt) < b.cfg.Cooldown {
			// A probe is in flight. Should it never resolve (dropped by a
			// racing replica or a dying caller), the claim expires after
			// one cooldown so the breaker cannot wedge half-open.
			b.mu.Unlock()
			return false
		}
		b.probing = true
		b.probeAt = now
		b.mu.Unlock()
		return true
	}
}

// Success records a request that completed: the peer is healthy, so any
// state collapses back to Closed and the failure count resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	changed := b.state != Closed
	b.state = Closed
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
	if changed {
		b.notify(Closed)
	}
}

// Fail records a failed request and reports whether this failure
// tripped the breaker open. Consecutive failures trip Closed → Open at
// the threshold; a failed half-open probe re-opens with a fresh
// cooldown. Failures landing while already Open (stragglers from
// before the trip) neither extend the cooldown nor re-count.
func (b *Breaker) Fail() bool {
	b.mu.Lock()
	tripped := false
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.cfg.FailThreshold {
			b.trip()
			tripped = true
		}
	case HalfOpen:
		b.trip()
		tripped = true
	case Open:
		// no-op: the cooldown clock keeps its origin.
	}
	b.mu.Unlock()
	if tripped {
		b.notify(Open)
	}
	return tripped
}

// notify runs the state-change hook, if any. Called outside b.mu so the
// hook may re-enter the breaker.
func (b *Breaker) notify(s State) {
	if b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(s)
	}
}

// trip moves to Open. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.cfg.Now()
	b.probing = false
	b.fails = 0
	b.opens++
}

// State returns the breaker's current state. An Open breaker whose
// cooldown has elapsed still reports Open until an Allow claims the
// half-open probe — state transitions happen on traffic, not on a
// timer.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns the cumulative number of Closed/HalfOpen → Open trips.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// Backoff produces a capped exponential retry schedule with equal
// jitter. The zero value is not usable; construct with NewBackoff.
// Safe for concurrent use.
type Backoff struct {
	mu      sync.Mutex
	base    time.Duration
	cap     time.Duration
	attempt int
	rng     *stats.RNG
}

// NewBackoff returns a backoff starting at base and capping at max.
// seed drives the jitter deterministically (same seed, same schedule).
func NewBackoff(base, max time.Duration, seed uint64) *Backoff {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max < base {
		max = base
	}
	return &Backoff{base: base, cap: max, rng: stats.NewRNG(seed)}
}

// Next returns the delay before the next attempt and advances the
// schedule: min(cap, base·2ⁿ), jittered into [d/2, d) so concurrent
// reconnectors spread out instead of thundering together.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.cap
	if shift := b.attempt; shift < 32 {
		if e := b.base << shift; e < b.cap && e > 0 {
			d = e
		}
	}
	b.attempt++
	half := d / 2
	return half + time.Duration(b.rng.Float64()*float64(half))
}

// Reset rewinds the schedule to the first attempt (after a success).
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.attempt = 0
	b.mu.Unlock()
}
