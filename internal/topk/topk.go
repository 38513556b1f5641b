package topk

// Item is one selected candidate.
type Item struct {
	ID    int
	Score float64
}

// worse reports whether a ranks strictly below b in the result order
// (lower score, or equal score and higher id).
func worse(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Selector selects the top k of an offered stream. The zero value is
// unusable; call Reset first. A Selector is not safe for concurrent use,
// but is designed for reuse: Reset reclaims the internal buffer, so a
// pooled Selector offers at steady state with zero allocations.
type Selector struct {
	k    int
	heap []Item // min-heap: root is the worst item kept
}

// reserveMax caps what Reset reserves up front. k often arrives in a
// request, and a hostile one must not buy a huge allocation before a
// single item is offered: past the cap the heap grows as items arrive.
const reserveMax = 1 << 12

// Reset empties the selector, sets its bound and reserves room for k
// items (up to reserveMax), so a fresh selector fills in one allocation
// and a reused one in none. k <= 0 selects nothing.
func (s *Selector) Reset(k int) {
	if k < 0 {
		k = 0
	}
	s.k = k
	if r := min(k, reserveMax); cap(s.heap) < r {
		s.heap = make([]Item, 0, r)
	} else {
		s.heap = s.heap[:0]
	}
}

// Offer considers one candidate. It is kept iff it ranks above the
// current k-th best (or the selector holds fewer than k items).
func (s *Selector) Offer(id int, score float64) {
	it := Item{ID: id, Score: score}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, it)
		s.up(len(s.heap) - 1)
		return
	}
	if s.k == 0 || !worse(s.heap[0], it) {
		return
	}
	s.heap[0] = it
	s.down(0)
}

// Sorted sorts the kept items best-first in place and returns the
// internal slice. The heap invariant is destroyed: the selector must be
// Reset before the next use, and the slice is only valid until then.
func (s *Selector) Sorted() []Item {
	// Standard heapsort finish: repeatedly swap the root (worst of the
	// remainder) to the end, so the slice ends up best-first.
	h := s.heap
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		s.heap = h[:n]
		s.down(0)
	}
	s.heap = h
	return h
}

func (s *Selector) up(i int) {
	h := s.heap
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (s *Selector) down(i int) {
	h := s.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && worse(h[r], h[l]) {
			m = r
		}
		if !worse(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
