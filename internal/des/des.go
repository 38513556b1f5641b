package des

import "container/heap"

// Event is a scheduled callback.
type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is a single-threaded event loop over virtual milliseconds. Events
// scheduled for the same instant fire in scheduling order, which makes
// every run bit-for-bit reproducible.
type Sim struct {
	now  float64
	heap eventHeap
	seq  uint64
}

// New returns a simulator at time 0.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in milliseconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute virtual time t. Scheduling in the past
// panics: it is always a simulation bug.
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic("des: scheduling into the past")
	}
	s.seq++
	heap.Push(&s.heap, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d milliseconds from now.
func (s *Sim) After(d float64, fn func()) {
	if d < 0 {
		panic("des: negative delay")
	}
	s.At(s.now+d, fn)
}

// Run processes events until none remain.
func (s *Sim) Run() {
	for len(s.heap) > 0 {
		s.step()
	}
}

func (s *Sim) step() {
	e := heap.Pop(&s.heap).(event)
	s.now = e.at
	e.fn()
}
