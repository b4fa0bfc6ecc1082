package matrix

import "fmt"

// RemapCols rewrites the packed layout for a column-space change: the words
// of old column c move to new column remap[c], and columns without a preimage
// (newly allocated one-hot codes) start all-zero. This is the growth half of
// streaming appends — when a feature's domain grows, the blocked one-hot
// layout shifts later columns right, and the packed bitset follows without
// re-reading any row data. Rows are untouched; newCols must cover every
// remap target.
func (cb *ColumnBits) RemapCols(newCols int, remap []int) error {
	if len(remap) != cb.cols {
		return fmt.Errorf("matrix: RemapCols remap has %d entries, want %d", len(remap), cb.cols)
	}
	if newCols < cb.cols {
		return fmt.Errorf("matrix: RemapCols cannot shrink %d columns to %d", cb.cols, newCols)
	}
	seen := make([]bool, newCols)
	for c, nc := range remap {
		if nc < 0 || nc >= newCols {
			return fmt.Errorf("matrix: RemapCols target %d of column %d out of bounds %d", nc, c, newCols)
		}
		if seen[nc] {
			return fmt.Errorf("matrix: RemapCols target %d mapped twice", nc)
		}
		seen[nc] = true
	}
	nb := make([]uint64, newCols*cb.words)
	for c, nc := range remap {
		copy(nb[nc*cb.words:(nc+1)*cb.words], cb.bits[c*cb.words:(c+1)*cb.words])
	}
	cb.cols = newCols
	cb.bits = nb
	return nil
}

// AppendRows extends the packed bitset to cover x's full row range, packing
// only the rows past the current row count. x is the accumulated CSR after
// the append: its first Rows() rows must be the matrix cb was packed from
// (post-remap), and its column count must match. When the per-column word
// count is unchanged (the new row count stays within the current tail words)
// the new bits land in place, O(new nnz); when rows cross a word boundary the
// storage is re-strided first, O(cols·words) word copies — still never
// re-reading old row data.
func (cb *ColumnBits) AppendRows(x *CSR) error {
	if x.cols != cb.cols {
		return fmt.Errorf("matrix: AppendRows column mismatch: csr has %d, bitset has %d", x.cols, cb.cols)
	}
	if x.rows < cb.rows {
		return fmt.Errorf("matrix: AppendRows csr has %d rows, bitset already covers %d", x.rows, cb.rows)
	}
	newWords := (x.rows + 63) / 64
	if newWords > cb.words {
		nb := make([]uint64, cb.cols*newWords)
		for c := 0; c < cb.cols; c++ {
			copy(nb[c*newWords:], cb.bits[c*cb.words:(c+1)*cb.words])
		}
		cb.bits = nb
		cb.words = newWords
	}
	cb.packRows(x, cb.rows)
	cb.rows = x.rows
	return nil
}
