package matrix

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row 0/1 pattern matrix: each row stores the
// ascending column ids of its ones, and no values. It is the workhorse
// representation for the one-hot encoded dataset X and the slice matrix S,
// both of which are extremely sparse 0/1 matrices in SliceLine.
//
// No CSR is mutated after construction, so a selection or a row range may
// share storage with the matrix it was taken from.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
}

// NewCSR assembles a CSR matrix from raw components without copying. The
// caller guarantees rowPtr has length rows+1, rowPtr[rows] == len(colIdx),
// and column ids are strictly ascending within each row.
func NewCSR(rows, cols int, rowPtr, colIdx []int) *CSR {
	if len(rowPtr) != rows+1 {
		panic(fmt.Sprintf("matrix: rowPtr length %d for %d rows", len(rowPtr), rows))
	}
	if rowPtr[rows] != len(colIdx) {
		panic("matrix: inconsistent CSR buffers")
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx}
}

// Triple is one (row, col) entry used to build sparse matrices. It is the Go
// analogue of the paper's table(rix, cix) primitive restricted to a 0/1
// result.
type Triple struct {
	Row, Col int
}

// CSRFromTriples builds an r×c CSR matrix from unordered triples. A
// coordinate listed more than once is stored once.
func CSRFromTriples(r, c int, ts []Triple) *CSR {
	counts := make([]int, r+1)
	for _, t := range ts {
		if t.Row < 0 || t.Row >= r || t.Col < 0 || t.Col >= c {
			panic(fmt.Sprintf("matrix: triple (%d,%d) out of bounds %dx%d", t.Row, t.Col, r, c))
		}
		counts[t.Row+1]++
	}
	for i := 0; i < r; i++ {
		counts[i+1] += counts[i]
	}
	colIdx := make([]int, len(ts))
	next := make([]int, r)
	copy(next, counts[:r])
	for _, t := range ts {
		colIdx[next[t.Row]] = t.Col
		next[t.Row]++
	}
	// Sort each row and drop repeated ids, compacting in place.
	rowPtr := make([]int, r+1)
	w := 0
	for i := 0; i < r; i++ {
		row := colIdx[counts[i]:counts[i+1]]
		sort.Ints(row)
		for _, j := range row {
			if w == rowPtr[i] || colIdx[w-1] != j {
				colIdx[w] = j
				w++
			}
		}
		rowPtr[i+1] = w
	}
	return &CSR{rows: r, cols: c, rowPtr: rowPtr, colIdx: colIdx[:w]}
}

// CSRFromDense converts a dense matrix, storing every nonzero as a one.
func CSRFromDense(d *Dense) *CSR {
	rowPtr := make([]int, d.rows+1)
	var colIdx []int
	for i := 0; i < d.rows; i++ {
		for j, v := range d.Row(i) {
			if v != 0 {
				colIdx = append(colIdx, j)
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &CSR{rows: d.rows, cols: d.cols, rowPtr: rowPtr, colIdx: colIdx}
}

// Components returns the raw CSR buffers (rowPtr, colIdx) without copying,
// for serialization; reconstruct with NewCSR. Callers must not mutate the
// returned slices.
func (m *CSR) Components() (rowPtr, colIdx []int) {
	return m.rowPtr, m.colIdx
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries (ones).
func (m *CSR) NNZ() int { return len(m.colIdx) }

// RowEntries returns the ascending column ids of row i's ones, aliasing the
// matrix storage.
func (m *CSR) RowEntries(i int) []int {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of bounds %d", i, m.rows))
	}
	return m.colIdx[m.rowPtr[i]:m.rowPtr[i+1]]
}

// At returns the element at row i, column j: 1 for a stored entry, else 0
// (O(log nnz(row))).
func (m *CSR) At(i, j int) float64 {
	cols := m.RowEntries(i)
	if k := sort.SearchInts(cols, j); k < len(cols) && cols[k] == j {
		return 1
	}
	return 0
}

// ToDense materializes the matrix densely.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		ri := d.Row(i)
		for _, j := range m.RowEntries(i) {
			ri[j] = 1
		}
	}
	return d
}

// T returns the transpose in CSR form (a CSR-to-CSC re-bucketing pass).
func (m *CSR) T() *CSR {
	counts := make([]int, m.cols+1)
	for _, j := range m.colIdx {
		counts[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		counts[j+1] += counts[j]
	}
	colIdx := make([]int, len(m.colIdx))
	next := make([]int, m.cols)
	copy(next, counts[:m.cols])
	for i := 0; i < m.rows; i++ {
		for _, j := range m.RowEntries(i) {
			colIdx[next[j]] = i
			next[j]++
		}
	}
	return &CSR{rows: m.cols, cols: m.rows, rowPtr: counts, colIdx: colIdx}
}

// RowRange returns rows [lo, hi) as a view: it owns only its rebased row
// pointers and shares m's column ids. The ids' capacity ends at row hi, so
// appending to the view's ids cannot write into m.
func (m *CSR) RowRange(lo, hi int) *CSR {
	if lo < 0 || lo > hi || hi > m.rows {
		panic(fmt.Sprintf("matrix: RowRange [%d,%d) out of bounds %d", lo, hi, m.rows))
	}
	base, end := m.rowPtr[lo], m.rowPtr[hi]
	rowPtr := make([]int, hi-lo+1)
	for k, p := range m.rowPtr[lo : hi+1] {
		rowPtr[k] = p - base
	}
	return &CSR{rows: hi - lo, cols: m.cols, rowPtr: rowPtr, colIdx: m.colIdx[base:end:end]}
}

// SelectCols returns m restricted to the given columns; column k of the
// result is column idx[k] of m. idx must be strictly increasing. When idx
// keeps every column the result is m itself; otherwise it is a new CSR.
func (m *CSR) SelectCols(idx []int) *CSR {
	remap := make([]int, m.cols) // new column per old column, -1 = dropped
	for j := range remap {
		remap[j] = -1
	}
	prev := -1
	for k, j := range idx {
		if j <= prev || j >= m.cols {
			panic(fmt.Sprintf("matrix: SelectCols indices must be increasing and in range, got %v", idx))
		}
		remap[j] = k
		prev = j
	}
	if len(idx) == m.cols {
		return m
	}
	nnz := 0
	for _, j := range m.colIdx[:m.rowPtr[m.rows]] {
		if remap[j] >= 0 {
			nnz++
		}
	}
	rowPtr := make([]int, m.rows+1)
	colIdx := make([]int, 0, nnz)
	for i := 0; i < m.rows; i++ {
		for _, j := range m.RowEntries(i) {
			if nj := remap[j]; nj >= 0 {
				colIdx = append(colIdx, nj)
			}
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &CSR{rows: m.rows, cols: len(idx), rowPtr: rowPtr, colIdx: colIdx}
}

// Equal reports whether m and o represent the same matrix.
func (m *CSR) Equal(o *CSR) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	return m.ToDense().Equal(o.ToDense())
}
