package cf

import (
	"math"

	"accuracytrader/internal/csr"
	"accuracytrader/internal/svd"
)

// Rating is one (item, score) pair of a user.
type Rating struct {
	Item  int32
	Score float64
}

// Matrix is the user-item rating matrix of one service component's data
// subset. User ratings are kept sorted by item for merge-join weight
// computation, in one flat CSR backing array (internal/csr) so exact
// scans and Algorithm 1's set processing stream contiguous memory.
//
// Beside the rows, every user has a bitmap of the items it rated — one
// word per 64 items, all users in one flat array — and a flag set when
// its row repeats an item. The scorer folds a user without a repeated
// item by intersecting its bitmap with the request's (scorer.go).
type Matrix struct {
	users  csr.Store[Rating]
	means  []float64
	bits   []uint64 // item bitmaps, user by user (itemBits)
	dup    []bool   // dup[u]: user u's row holds an item more than once
	nItems int
}

// NewMatrix returns an empty matrix over nItems items.
func NewMatrix(nItems int) *Matrix {
	if nItems <= 0 {
		panic("cf: non-positive item count")
	}
	return &Matrix{nItems: nItems}
}

// bitmapWords returns the 64-bit words a bitmap over nItems items takes.
func bitmapWords(nItems int) int { return (nItems + 63) / 64 }

// AddUser appends a user with the given ratings and returns the user id.
func (m *Matrix) AddUser(rs []Rating) int {
	id := m.users.AddRow(nil)
	m.means = append(m.means, 0)
	m.bits = append(m.bits, make([]uint64, bitmapWords(m.nItems))...)
	m.dup = append(m.dup, false)
	m.SetUser(id, rs)
	return id
}

// SetUser replaces user u's ratings (an input-data change). It is the
// one mutation path, so it keeps u's item bitmap and duplicate flag.
func (m *Matrix) SetUser(u int, rs []Rating) {
	if u < 0 || u >= m.users.NumRows() {
		panic("cf: SetUser out of range")
	}
	cp := append([]Rating(nil), rs...)
	sortRatings(cp)
	sum := 0.0
	for _, r := range cp {
		if r.Item < 0 || int(r.Item) >= m.nItems {
			panic("cf: rating item out of range")
		}
		sum += r.Score
	}
	m.users.SetRow(u, cp)
	if len(cp) > 0 {
		m.means[u] = sum / float64(len(cp))
	} else {
		m.means[u] = 0
	}
	ub := m.itemBits(u)
	clear(ub)
	dup := false
	for i, r := range cp {
		dup = dup || i > 0 && cp[i-1].Item == r.Item
		ub[r.Item>>6] |= 1 << (r.Item & 63)
	}
	m.dup[u] = dup
}

// itemBits returns user u's item bitmap, aliasing the matrix.
func (m *Matrix) itemBits(u int) []uint64 {
	w := bitmapWords(m.nItems)
	return m.bits[u*w : (u+1)*w : (u+1)*w]
}

// NumUsers returns the number of users.
func (m *Matrix) NumUsers() int { return m.users.NumRows() }

// NumItems returns the item-space size.
func (m *Matrix) NumItems() int { return m.nItems }

// NumRatings returns the total number of ratings stored.
func (m *Matrix) NumRatings() int { return m.users.TotalLen() }

// Ratings returns user u's ratings sorted by item. The slice aliases the
// flat backing array and is valid until the next matrix mutation.
func (m *Matrix) Ratings(u int) []Rating { return m.users.Row(u) }

// Mean returns user u's mean rating (0 when the user has no ratings).
func (m *Matrix) Mean(u int) float64 { return m.means[u] }

// Rating returns user u's score for an item, if rated.
func (m *Matrix) Rating(u int, item int32) (float64, bool) {
	rs := m.users.Row(u)
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := (lo + hi) / 2
		if rs[mid].Item < item {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(rs) && rs[lo].Item == item {
		return rs[lo].Score, true
	}
	return 0, false
}

// Weight returns the Pearson correlation coefficient between two users'
// rating vectors over their co-rated items — the paper's similarity weight.
// Users with fewer than two co-rated items get weight 0.
//
// The co-rated pairs are found by a merge-join over the sorted rating
// vectors, run twice (means, then moments) so nothing is materialized:
// zero allocations, and the accumulation order is exactly that of the
// reference implementation (collect pairs, then pearson), keeping
// the result bit-identical to it.
//
// Weight is the two-vector definition, for callers that hold two rating
// vectors and no request. Requests are scored by the bound scorer
// (scorer.go), which finds the same pairs by item bitmap or in one pass
// over the neighbour and computes the same weight; no scan loop calls
// Weight.
func Weight(a, b []Rating) float64 {
	n := 0
	sx, sy := 0.0, 0.0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ai, bj := a[i].Item, b[j].Item
		if ai < bj {
			i++
			continue
		}
		if ai > bj {
			j++
			continue
		}
		sx += a[i].Score
		sy += b[j].Score
		n++
		i++
		j++
	}
	if n < 2 {
		return 0
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxy, sxx, syy float64
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		ai, bj := a[i].Item, b[j].Item
		if ai < bj {
			i++
			continue
		}
		if ai > bj {
			j++
			continue
		}
		dx, dy := a[i].Score-mx, b[j].Score-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
		i++
		j++
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp rounding noise so callers can rely on [-1,1].
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// FeatureSource adapts the matrix to synopsis building: each user is a
// data point whose sparse features are item ratings (paper step 1).
type FeatureSource struct{ M *Matrix }

// NumPoints returns the number of users.
func (f FeatureSource) NumPoints() int { return f.M.NumUsers() }

// NumFeatures returns the item-space size.
func (f FeatureSource) NumFeatures() int { return f.M.NumItems() }

// Features returns user i's ratings as SVD cells.
func (f FeatureSource) Features(i int) []svd.Cell {
	rs := f.M.Ratings(i)
	cells := make([]svd.Cell, len(rs))
	for k, r := range rs {
		cells[k] = svd.Cell{Col: r.Item, Val: r.Score}
	}
	return cells
}
