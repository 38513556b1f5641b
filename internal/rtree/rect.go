package rtree

import "math"

// Rect is an axis-aligned minimum bounding rectangle in d dimensions.
type Rect struct {
	Lo, Hi []float64
}

// PointRect returns the degenerate rectangle covering a single point.
func PointRect(p []float64) Rect {
	lo := make([]float64, len(p))
	hi := make([]float64, len(p))
	copy(lo, p)
	copy(hi, p)
	return Rect{Lo: lo, Hi: hi}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// Area returns the d-dimensional volume of the rectangle.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Lo {
		a *= r.Hi[i] - r.Lo[i]
	}
	return a
}

// Contains reports whether r fully contains s.
func (r Rect) Contains(s Rect) bool {
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	lo := make([]float64, len(r.Lo))
	hi := make([]float64, len(r.Hi))
	for i := range r.Lo {
		lo[i] = math.Min(r.Lo[i], s.Lo[i])
		hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return Rect{Lo: lo, Hi: hi}
}

// Enlargement returns the area increase needed for r to cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

func (r Rect) clone() Rect {
	lo := make([]float64, len(r.Lo))
	hi := make([]float64, len(r.Hi))
	copy(lo, r.Lo)
	copy(hi, r.Hi)
	return Rect{Lo: lo, Hi: hi}
}
