package des

// RunUntil processes events with time <= t, then advances the clock to t.
func (s *Sim) RunUntil(t float64) {
	for len(s.heap) > 0 && s.heap[0].at <= t {
		s.step()
	}
	if t > s.now {
		s.now = t
	}
}
