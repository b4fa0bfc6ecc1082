package matrix

import "fmt"

// ColumnBits is a packed column-major bitset view of a 0/1 matrix: bit i of
// column c is set exactly when row i stores a nonzero in column c. Each
// column occupies ceil(rows/64) consecutive uint64 words, so testing whether
// a row satisfies a conjunction of columns is a word-wise AND and counting
// the rows that do is math/bits.OnesCount64 — the slice-membership primitive
// of SliceLine's evaluation kernel (Section 4.4 / Equation 10) without
// materializing the n × nrow(S) indicator.
//
// The layout trades memory for scan speed: a ColumnBits always costs
// rows·cols/8 bytes regardless of sparsity, where CSR costs O(nnz). The
// break-even sits near one set bit per 64-bit word (column density 1/64);
// core's kernel selection applies exactly that rule.
type ColumnBits struct {
	rows, cols int
	words      int      // per-column word count, ceil(rows/64)
	bits       []uint64 // cols*words; column c occupies bits[c*words:(c+1)*words]
}

// PackColumns packs every column of a CSR matrix into bitsets. Bits past the
// last row in the ragged tail word (rows % 64 != 0) are always zero, so
// popcounts never overcount.
func PackColumns(x *CSR) *ColumnBits {
	words := (x.rows + 63) / 64
	cb := &ColumnBits{
		rows:  x.rows,
		cols:  x.cols,
		words: words,
		bits:  make([]uint64, x.cols*words),
	}
	cb.packRows(x, 0)
	return cb
}

// NewColumnBits wraps packed words in PackColumns' layout without copying:
// column c is words[c*⌈rows/64⌉ : (c+1)*⌈rows/64⌉], row i is bit i%64 of its
// column's word i/64. It refuses a word count other than cols·⌈rows/64⌉ and
// any bit set past the last row, which would count a row that does not
// exist.
func NewColumnBits(rows, cols int, words []uint64) (*ColumnBits, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("matrix: ColumnBits of %d rows and %d columns", rows, cols)
	}
	per, tail := rows/64, uint(rows&63)
	if tail != 0 {
		per++
	}
	if (per == 0 && len(words) != 0) || (per > 0 && (len(words)%per != 0 || len(words)/per != cols)) {
		return nil, fmt.Errorf("matrix: %d packed words for %d rows × %d columns", len(words), rows, cols)
	}
	if tail != 0 {
		for c := 0; c < cols; c++ {
			if words[(c+1)*per-1]>>tail != 0 {
				return nil, fmt.Errorf("matrix: column %d sets a bit past row %d", c, rows-1)
			}
		}
	}
	return &ColumnBits{rows: rows, cols: cols, words: per, bits: words}, nil
}

// packRows sets the bits of x's rows [from, x.Rows()); the storage must
// already hold that many rows per column.
func (cb *ColumnBits) packRows(x *CSR, from int) {
	bits, words := cb.bits, cb.words
	for i := from; i < x.rows; i++ {
		w := i >> 6
		bit := uint64(1) << uint(i&63)
		for _, c := range x.RowEntries(i) {
			bits[c*words+w] |= bit
		}
	}
}

// KeepCols narrows the packed matrix to the given columns in place: column k
// becomes column idx[k], whose words move down over the dropped ones, so no
// row is re-read and nothing is allocated. idx must be strictly increasing.
// The storage keeps its capacity; Col still returns only the kept columns.
func (cb *ColumnBits) KeepCols(idx []int) {
	prev := -1
	for k, j := range idx {
		if j <= prev || j >= cb.cols {
			panic(fmt.Sprintf("matrix: KeepCols indices must be increasing and in range, got %v", idx))
		}
		prev = j
		// j >= k, so the source never lies below the destination and the
		// columns still to move are not yet overwritten.
		if j != k {
			copy(cb.bits[k*cb.words:(k+1)*cb.words], cb.bits[j*cb.words:(j+1)*cb.words])
		}
	}
	cb.cols = len(idx)
	cb.bits = cb.bits[:len(idx)*cb.words]
}

// Rows returns the row count of the packed matrix.
func (cb *ColumnBits) Rows() int { return cb.rows }

// Cols returns the column count of the packed matrix.
func (cb *ColumnBits) Cols() int { return cb.cols }

// Words returns the number of 64-bit words per column.
func (cb *ColumnBits) Words() int { return cb.words }

// Col returns the packed words of column c, aliasing the internal storage.
// Callers must not mutate the returned slice.
func (cb *ColumnBits) Col(c int) []uint64 {
	if c < 0 || c >= cb.cols {
		panic(fmt.Sprintf("matrix: ColumnBits column %d out of bounds %d", c, cb.cols))
	}
	return cb.bits[c*cb.words : (c+1)*cb.words]
}
