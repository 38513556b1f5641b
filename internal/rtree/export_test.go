package rtree

// NewRect returns a rectangle with the given corners; it panics when the
// corners disagree in dimension or ordering, which is always a bug.
func NewRect(lo, hi []float64) Rect {
	if len(lo) != len(hi) {
		panic("rtree: corner dimension mismatch")
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic("rtree: lo > hi")
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// Margin returns the sum of edge lengths (used by split heuristics).
func (r Rect) Margin() float64 {
	m := 0.0
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// ContainsPoint reports whether the point p lies inside r (inclusive).
func (r Rect) ContainsPoint(p []float64) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the rectangle's center point.
func (r Rect) Center() []float64 {
	c := make([]float64, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// NewDefault returns an empty tree with default capacities for dim
// dimensions.
func NewDefault(dim int) *Tree {
	return New(dim, DefaultMax/4, DefaultMax)
}

// All appends every stored ID to dst and returns the extended slice.
func (t *Tree) All(dst []int) []int {
	return t.collectIDs(t.root, dst)
}
