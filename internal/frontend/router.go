package frontend

import (
	"sync"

	"accuracytrader/internal/stats"
)

// ReplicaMap places R replicas of each data subset on consecutive
// components: subset s can be served by components s, s+1, …, s+R-1
// (mod n). R=1 degenerates to the fixed home-component placement; R=n
// makes every component a candidate for every subset.
type ReplicaMap struct {
	n        int
	replicas [][]int
}

// NewReplicaMap builds the map for n components with replica factor r
// (clamped to [1, n]).
func NewReplicaMap(n, r int) ReplicaMap {
	if n < 1 {
		n = 1
	}
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	m := ReplicaMap{n: n, replicas: make([][]int, n)}
	for s := 0; s < n; s++ {
		row := make([]int, r)
		for k := 0; k < r; k++ {
			row[k] = (s + k) % n
		}
		m.replicas[s] = row
	}
	return m
}

// Replicas returns the components that can serve the subset. The
// returned slice is shared; callers must not modify it.
func (m ReplicaMap) Replicas(subset int) []int {
	if m.n == 0 {
		return nil
	}
	subset %= m.n
	if subset < 0 {
		subset += m.n
	}
	return m.replicas[subset]
}

// Router picks the component that serves one sub-operation from the
// subset's replica set. queueDepth is a live probe of a component's
// outstanding work. Implementations must be safe for concurrent use.
type Router interface {
	Pick(subset int, replicas []int, queueDepth func(comp int) int) int
}

// RoundRobin cycles each subset through its replicas independently,
// spreading load without looking at it.
type RoundRobin struct {
	mu   sync.Mutex
	next map[int]int
}

// NewRoundRobin returns a round-robin router.
func NewRoundRobin() *RoundRobin {
	return &RoundRobin{next: make(map[int]int)}
}

// Pick returns the subset's next replica in rotation.
func (r *RoundRobin) Pick(subset int, replicas []int, _ func(int) int) int {
	if len(replicas) == 0 {
		return subset
	}
	r.mu.Lock()
	i := r.next[subset]
	r.next[subset] = (i + 1) % len(replicas)
	r.mu.Unlock()
	return replicas[i%len(replicas)]
}

// LeastLoaded sends the sub-operation to the replica with the
// shallowest queue (ties break toward the home component, which comes
// first in the replica set).
type LeastLoaded struct{}

// NewLeastLoaded returns a least-loaded router.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Pick probes every replica and returns the least loaded.
func (*LeastLoaded) Pick(subset int, replicas []int, queueDepth func(int) int) int {
	if len(replicas) == 0 {
		return subset
	}
	best := replicas[0]
	bestDepth := queueDepth(best)
	for _, c := range replicas[1:] {
		if d := queueDepth(c); d < bestDepth {
			best, bestDepth = c, d
		}
	}
	return best
}

// PowerOfTwo samples two distinct random replicas and picks the less
// loaded — near-least-loaded balance at two probes per decision, and
// no herding onto a single momentarily-idle component.
type PowerOfTwo struct {
	mu  sync.Mutex
	rng *stats.RNG
}

// NewPowerOfTwo returns a power-of-two-choices router seeded for
// reproducible runs.
func NewPowerOfTwo(seed uint64) *PowerOfTwo {
	return &PowerOfTwo{rng: stats.NewRNG(seed)}
}

// Pick compares two random replicas.
func (p *PowerOfTwo) Pick(subset int, replicas []int, queueDepth func(int) int) int {
	switch len(replicas) {
	case 0:
		return subset
	case 1:
		return replicas[0]
	}
	p.mu.Lock()
	i := p.rng.Intn(len(replicas))
	j := p.rng.Intn(len(replicas) - 1)
	p.mu.Unlock()
	if j >= i {
		j++
	}
	a, b := replicas[i], replicas[j]
	if queueDepth(b) < queueDepth(a) {
		return b
	}
	return a
}
