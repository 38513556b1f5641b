package csr

import (
	"testing"

	"accuracytrader/internal/stats"
)

// model is the obvious [][]int reference implementation.
type model struct{ rows [][]int }

func (m *model) addRow(items []int) int {
	m.rows = append(m.rows, append([]int(nil), items...))
	return len(m.rows) - 1
}
func (m *model) setRow(r int, items []int) { m.rows[r] = append([]int(nil), items...) }
func (m *model) insertAt(r, i int, v int) {
	row := m.rows[r]
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = v
	m.rows[r] = row
}
func (m *model) removeAt(r, i int) {
	m.rows[r] = append(m.rows[r][:i], m.rows[r][i+1:]...)
}

func checkAgainstModel(t *testing.T, s *Store[int], m *model) {
	t.Helper()
	if s.NumRows() != len(m.rows) {
		t.Fatalf("NumRows %d, want %d", s.NumRows(), len(m.rows))
	}
	total := 0
	for r := range m.rows {
		total += len(m.rows[r])
		if s.Len(r) != len(m.rows[r]) {
			t.Fatalf("row %d len %d, want %d", r, s.Len(r), len(m.rows[r]))
		}
		row := s.Row(r)
		for i, v := range m.rows[r] {
			if row[i] != v {
				t.Fatalf("row %d pos %d: %d, want %d", r, i, row[i], v)
			}
		}
	}
	if s.TotalLen() != total {
		t.Fatalf("TotalLen %d, want %d", s.TotalLen(), total)
	}
}

func TestStoreBasics(t *testing.T) {
	var s Store[int]
	r0 := s.AddRow([]int{1, 2, 3})
	r1 := s.AddRow(nil)
	r2 := s.AddRow([]int{9})
	if r0 != 0 || r1 != 1 || r2 != 2 {
		t.Fatal("row ids wrong")
	}
	if s.TotalLen() != 4 || s.Len(1) != 0 {
		t.Fatal("lengths wrong")
	}
	s.SetRow(1, []int{7, 8})
	if got := s.Row(1); len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("row 1 = %v", got)
	}
	// Shrink in place.
	s.SetRow(0, []int{5})
	if got := s.Row(0); len(got) != 1 || got[0] != 5 {
		t.Fatalf("row 0 = %v", got)
	}
	if s.TotalLen() != 4 {
		t.Fatalf("TotalLen = %d", s.TotalLen())
	}
}

func TestStoreInsertRemove(t *testing.T) {
	var s Store[int]
	s.AddRow([]int{10, 30})
	s.InsertAt(0, 1, 20)
	s.InsertAt(0, 3, 40)
	s.InsertAt(0, 0, 5)
	want := []int{5, 10, 20, 30, 40}
	row := s.Row(0)
	for i, v := range want {
		if row[i] != v {
			t.Fatalf("after inserts: %v", row)
		}
	}
	s.RemoveAt(0, 2)
	s.RemoveAt(0, 0)
	row = s.Row(0)
	want = []int{10, 30, 40}
	if len(row) != 3 {
		t.Fatalf("after removes: %v", row)
	}
	for i, v := range want {
		if row[i] != v {
			t.Fatalf("after removes: %v", row)
		}
	}
}

func TestStoreRowSliceIsCapacityClamped(t *testing.T) {
	var s Store[int]
	s.AddRow([]int{1})
	s.AddRow([]int{2})
	row := s.Row(0)
	if cap(row) != len(row) {
		t.Fatalf("row slice not clamped: len %d cap %d", len(row), cap(row))
	}
}

func TestStoreCompactPreservesContents(t *testing.T) {
	var s Store[int]
	var m model
	rng := stats.NewRNG(7)
	for r := 0; r < 20; r++ {
		items := make([]int, rng.Intn(10))
		for i := range items {
			items[i] = rng.Intn(100)
		}
		s.AddRow(items)
		m.addRow(items)
	}
	// Force relocations by growing rows, then compact explicitly.
	for r := 0; r < 20; r++ {
		for j := 0; j < 10; j++ {
			v := rng.Intn(100)
			s.InsertAt(r, s.Len(r), v)
			m.insertAt(r, len(m.rows[r]), v)
		}
	}
	s.Compact()
	checkAgainstModel(t, &s, &m)
	if s.dead != 0 {
		t.Fatalf("dead after compact = %d", s.dead)
	}
}

// TestStoreRandomizedAgainstModel drives the store through random
// mutations, packing it at random points, and checks it against the
// model after every pack and at the end.
func TestStoreRandomizedAgainstModel(t *testing.T) {
	rng := stats.NewRNG(42)
	var s Store[int]
	var m model
	packs := 0
	for op := 0; op < 5000; op++ {
		switch {
		case s.NumRows() > 0 && rng.Float64() < 0.01:
			s.Pack()
			packs++
			checkAgainstModel(t, &s, &m)
		case s.NumRows() == 0 || rng.Float64() < 0.1:
			items := make([]int, rng.Intn(6))
			for i := range items {
				items[i] = rng.Intn(1000)
			}
			s.AddRow(items)
			m.addRow(items)
		case rng.Float64() < 0.2:
			r := rng.Intn(s.NumRows())
			items := make([]int, rng.Intn(12))
			for i := range items {
				items[i] = rng.Intn(1000)
			}
			s.SetRow(r, items)
			m.setRow(r, items)
		case rng.Float64() < 0.6:
			r := rng.Intn(s.NumRows())
			i := rng.Intn(s.Len(r) + 1)
			v := rng.Intn(1000)
			s.InsertAt(r, i, v)
			m.insertAt(r, i, v)
		default:
			r := rng.Intn(s.NumRows())
			if s.Len(r) == 0 {
				continue
			}
			i := rng.Intn(s.Len(r))
			s.RemoveAt(r, i)
			m.removeAt(r, i)
		}
	}
	checkAgainstModel(t, &s, &m)
	if packs == 0 {
		t.Fatal("the run never packed")
	}
}

// checkPacked asserts s holds exactly its live elements: each row's
// capacity its length, the backing array TotalLen long with no spare
// capacity, and no holes.
func checkPacked(t *testing.T, s *Store[int]) {
	t.Helper()
	for r, sp := range s.rows {
		if sp.cap != sp.n {
			t.Fatalf("row %d: cap %d, len %d", r, sp.cap, sp.n)
		}
	}
	if len(s.flat) != s.TotalLen() || cap(s.flat) != s.TotalLen() || s.Slots() != s.TotalLen() {
		t.Fatalf("backing array len %d cap %d, want TotalLen %d", len(s.flat), cap(s.flat), s.TotalLen())
	}
	if s.dead != 0 {
		t.Fatalf("dead = %d after Pack", s.dead)
	}
}

// TestStorePack: after churn leaves slack and holes, Pack keeps every
// row and leaves none of either; inserts, tail appends and row sets made
// afterwards (into empty rows, full rows and shrunk rows alike) relocate
// and still match the model, and a second Pack packs again.
func TestStorePack(t *testing.T) {
	rng := stats.NewRNG(11)
	var s Store[int]
	var m model
	for r := 0; r < 40; r++ {
		items := make([]int, rng.Intn(9))
		for i := range items {
			items[i] = rng.Intn(100)
		}
		s.AddRow(items)
		m.addRow(items)
	}
	for j := 0; j < 300; j++ {
		r, v := rng.Intn(40), rng.Intn(100)
		i := rng.Intn(s.Len(r) + 1)
		s.InsertAt(r, i, v)
		m.insertAt(r, i, v)
	}
	s.RemoveAt(3, 0)
	m.removeAt(3, 0)
	s.SetRow(5, nil)
	m.setRow(5, nil)
	if s.Slots() == s.TotalLen() {
		t.Fatal("fixture left no slack or holes to pack")
	}
	s.Pack()
	checkPacked(t, &s)
	checkAgainstModel(t, &s, &m)

	for j := 0; j < 200; j++ {
		r, v := rng.Intn(40), rng.Intn(100)
		switch j % 3 {
		case 0:
			i := rng.Intn(s.Len(r) + 1)
			s.InsertAt(r, i, v)
			m.insertAt(r, i, v)
		case 1:
			s.AppendElem(r, v)
			m.insertAt(r, len(m.rows[r]), v)
		default:
			items := make([]int, rng.Intn(12))
			for i := range items {
				items[i] = rng.Intn(100)
			}
			s.SetRow(r, items)
			m.setRow(r, items)
		}
		checkAgainstModel(t, &s, &m)
	}
	s.Pack()
	checkPacked(t, &s)
	checkAgainstModel(t, &s, &m)
}
