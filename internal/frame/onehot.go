package frame

import (
	"fmt"

	"sliceline/internal/matrix"
)

// Encoding is the one-hot encoded form of a dataset: the sparse 0/1 matrix X
// (n × l) plus the per-feature column offsets that Algorithm 1 uses to map
// between one-hot columns and original features.
//
// For feature j (0-based), its one-hot columns occupy the half-open range
// [Beg[j], End[j]) of X, with End[j]-Beg[j] == domain(j). These correspond
// to the paper's fb (exclusive begin) and fe (inclusive end) offsets.
type Encoding struct {
	X    *matrix.CSR
	Beg  []int // Beg[j] = first one-hot column of feature j
	End  []int // End[j] = one past the last one-hot column of feature j
	Doms []int // Doms[j] = domain size of feature j
}

// NumFeatures returns m, the original feature count.
func (e *Encoding) NumFeatures() int { return len(e.Beg) }

// Width returns l, the one-hot width.
func (e *Encoding) Width() int { return e.X.Cols() }

// FeatureOf returns the original feature index owning one-hot column c.
func (e *Encoding) FeatureOf(c int) int {
	for j := range e.Beg {
		if c >= e.Beg[j] && c < e.End[j] {
			return j
		}
	}
	panic(fmt.Sprintf("frame: one-hot column %d out of range %d", c, e.Width()))
}

// ValueOf returns the 1-based feature code encoded by one-hot column c.
func (e *Encoding) ValueOf(c int) int {
	return c - e.Beg[e.FeatureOf(c)] + 1
}

// OneHot encodes a dataset into its sparse 0/1 representation, the
// `X ← onehot(X0 + fb)` step of Algorithm 1 lines 1-5. Every row of X has
// exactly m nonzeros (one per feature), so nnz = n·m and the density is 1/l
// per feature block, matching the ultra-sparse matrices the paper evaluates.
//
// OneHot accepts exactly the datasets Validate accepts. It range-checks each
// code as it writes the ids, so valid data is read once, row by row; on any
// failure it returns Validate's error, which names the first bad code in
// Validate's feature-major order.
func OneHot(d *Dataset) (*Encoding, error) {
	if d.X0 == nil || d.X0.Cols != len(d.Features) || d.Y != nil && len(d.Y) != d.X0.Rows {
		return nil, d.Validate()
	}
	m := d.NumFeatures()
	enc := &Encoding{
		Beg:  make([]int, m),
		End:  make([]int, m),
		Doms: make([]int, m),
	}
	l := 0
	for j, f := range d.Features {
		if f.Domain < 1 {
			return nil, d.Validate()
		}
		enc.Beg[j] = l
		l += f.Domain
		enc.End[j] = l
		enc.Doms[j] = f.Domain
	}
	n := d.NumRows()
	rowPtr := make([]int, n+1)
	colIdx := make([]int, n*m)
	beg, doms := enc.Beg, enc.Doms
	for i := 0; i < n; i++ {
		ids := colIdx[i*m : (i+1)*m]
		for j, code := range d.X0.Row(i) {
			if code < 1 || code > doms[j] {
				return nil, d.Validate()
			}
			ids[j] = beg[j] + code - 1
		}
		// Columns within a row are ascending because Beg is ascending and
		// codes stay within their feature block.
		rowPtr[i+1] = (i + 1) * m
	}
	enc.X = matrix.NewCSR(n, l, rowPtr, colIdx)
	return enc, nil
}
