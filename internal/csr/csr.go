package csr

// span addresses one row inside the backing array.
type span struct {
	off int32
	n   int32
	cap int32
}

// Store is a mutable CSR container. The zero value is an empty store.
// Row slices returned by Row alias the backing array: they are
// invalidated by any subsequent mutation of the store.
type Store[T any] struct {
	flat []T
	rows []span
	live int // total live elements across rows
	dead int // abandoned capacity from relocated rows
}

// NumRows returns the number of rows ever added.
func (s *Store[T]) NumRows() int { return len(s.rows) }

// Len returns the length of row r.
func (s *Store[T]) Len(r int) int { return int(s.rows[r].n) }

// TotalLen returns the total number of live elements across all rows.
func (s *Store[T]) TotalLen() int { return s.live }

// Slots returns the backing array's capacity: TotalLen once packed.
func (s *Store[T]) Slots() int { return cap(s.flat) }

// Row returns row r as a slice of the backing array (read-mutable in
// place, but append would clobber a neighbouring row — the slice is
// capacity-clamped to prevent that).
func (s *Store[T]) Row(r int) []T {
	sp := s.rows[r]
	return s.flat[sp.off : sp.off+sp.n : sp.off+sp.n]
}

// AddRow appends a new row holding a copy of items and returns its id.
func (s *Store[T]) AddRow(items []T) int {
	r := len(s.rows)
	s.rows = append(s.rows, span{})
	s.SetRow(r, items)
	return r
}

// SetRow replaces row r's contents with a copy of items.
func (s *Store[T]) SetRow(r int, items []T) {
	sp := &s.rows[r]
	s.live += len(items) - int(sp.n)
	if len(items) <= int(sp.cap) {
		copy(s.flat[sp.off:], items)
		sp.n = int32(len(items))
		s.maybeCompact()
		return
	}
	s.relocate(r, int32(growCap(len(items))), false)
	sp = &s.rows[r]
	copy(s.flat[sp.off:], items)
	sp.n = int32(len(items))
	s.maybeCompact()
}

// InsertAt inserts v at position i of row r, shifting the tail right.
func (s *Store[T]) InsertAt(r, i int, v T) {
	sp := &s.rows[r]
	if sp.n == sp.cap {
		s.relocate(r, int32(growCap(int(sp.n)+1)), true)
		sp = &s.rows[r]
	}
	row := s.flat[sp.off : sp.off+sp.n+1]
	copy(row[i+1:], row[i:])
	row[i] = v
	sp.n++
	s.live++
	s.maybeCompact()
}

// RemoveAt removes position i of row r, shifting the tail left.
func (s *Store[T]) RemoveAt(r, i int) {
	sp := &s.rows[r]
	row := s.flat[sp.off : sp.off+sp.n]
	copy(row[i:], row[i+1:])
	sp.n--
	s.live--
}

// relocate moves row r to the end of the backing array with the given
// capacity, abandoning its old span. keepData copies the old contents
// into the new span; SetRow passes false since it overwrites the row
// wholesale anyway.
func (s *Store[T]) relocate(r int, newCap int32, keepData bool) {
	sp := s.rows[r]
	off := int32(len(s.flat))
	s.flat = append(s.flat, make([]T, newCap)...)
	if keepData {
		copy(s.flat[off:], s.flat[sp.off:sp.off+sp.n])
	}
	s.dead += int(sp.cap)
	s.rows[r] = span{off: off, n: sp.n, cap: newCap}
}

// growCap returns the relocation capacity for a row that must hold n
// elements: doubling with a small floor, so repeated single-element
// inserts relocate O(log n) times.
func growCap(n int) int {
	c := 4
	for c < n {
		c *= 2
	}
	return c
}

// maybeCompact repacks the backing array when more than half of it is
// dead. Row capacities (slack) are preserved, only holes are squeezed
// out, so compaction cannot cascade.
func (s *Store[T]) maybeCompact() {
	if s.dead <= len(s.flat)/2 || s.dead < 1024 {
		return
	}
	s.Compact()
}

// Compact rewrites the backing array without holes. All previously
// returned row slices are invalidated.
func (s *Store[T]) Compact() {
	total := 0
	for _, sp := range s.rows {
		total += int(sp.cap)
	}
	flat := make([]T, 0, total)
	for r := range s.rows {
		sp := &s.rows[r]
		off := int32(len(flat))
		flat = append(flat, s.flat[sp.off:sp.off+sp.cap]...)
		sp.off = off
	}
	s.flat = flat
	s.dead = 0
}

// Pack rewrites the backing array as exactly TotalLen elements in row
// order, each row's capacity its length: no slack, no holes. A row that
// grows afterwards relocates as it would anyway.
func (s *Store[T]) Pack() {
	for r := range s.rows {
		s.rows[r].cap = s.rows[r].n
	}
	s.Compact()
}
