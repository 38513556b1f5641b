package topk

// Threshold returns the current k-th best item and true when the selector
// is full; callers can use it to skip candidates that cannot qualify.
func (s *Selector) Threshold() (Item, bool) {
	if len(s.heap) < s.k || s.k == 0 {
		return Item{}, false
	}
	return s.heap[0], true
}
