package svd

// Cell is one known value in a sparse row.
type Cell struct {
	Col int32
	Val float64
}

// Matrix is a sparse row-major matrix of known cells. Rows correspond to
// data points (users, web pages); columns to feature attributes (items,
// vocabulary terms).
type Matrix struct {
	rows, cols int
	cells      [][]Cell
	nnz        int
}

// NewMatrix returns an empty rows x cols sparse matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols <= 0 {
		panic("svd: invalid matrix shape")
	}
	return &Matrix{rows: rows, cols: cols, cells: make([][]Cell, rows)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of known cells.
func (m *Matrix) NNZ() int { return m.nnz }

// Set records the value of cell (r, c), overwriting any previous value.
func (m *Matrix) Set(r, c int, v float64) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic("svd: Set out of range")
	}
	row := m.cells[r]
	for i := range row {
		if row[i].Col == int32(c) {
			row[i].Val = v
			return
		}
	}
	m.cells[r] = append(row, Cell{Col: int32(c), Val: v})
	m.nnz++
}

// Row returns the cells of row r (shared slice; callers must not modify).
func (m *Matrix) Row(r int) []Cell { return m.cells[r] }

// Get returns the value at (r, c) and whether it is known.
func (m *Matrix) Get(r, c int) (float64, bool) {
	for _, cell := range m.cells[r] {
		if cell.Col == int32(c) {
			return cell.Val, true
		}
	}
	return 0, false
}
