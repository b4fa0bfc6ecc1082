// Package matrix provides the dense and sparse (CSR) linear-algebra kernels
// that SliceLine's enumeration algorithm is built on. It implements the
// primitive set used by the paper's DML/R scripts — contingency tables,
// matrix multiplication, column/row aggregates, element-wise comparisons,
// cumulative sums — with shared-memory parallel kernels for the hot paths,
// plus the packed column bitsets behind the AND+popcount evaluation kernel.
// Dense matrices hold float64 values. The CSR is a 0/1 pattern: it stores
// only the ascending column ids of each row's ones, since the one-hot X and
// the slice matrix S it represents hold nothing but ones.
//
// Dimension mismatches are programming errors and panic, mirroring the
// behaviour of established Go numeric libraries; data-dependent failures
// (for example appending rows that do not match a packed bitset) return
// errors.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed r×c dense matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps data (row-major, length r*c) in a Dense without copying.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Rows returns the number of rows.
func (d *Dense) Rows() int { return d.rows }

// Cols returns the number of columns.
func (d *Dense) Cols() int { return d.cols }

// At returns the element at row i, column j.
func (d *Dense) At(i, j int) float64 {
	d.check(i, j)
	return d.data[i*d.cols+j]
}

// Set assigns the element at row i, column j.
func (d *Dense) Set(i, j int, v float64) {
	d.check(i, j)
	d.data[i*d.cols+j] = v
}

func (d *Dense) check(i, j int) {
	if i < 0 || i >= d.rows || j < 0 || j >= d.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of bounds %dx%d", i, j, d.rows, d.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
func (d *Dense) Row(i int) []float64 {
	if i < 0 || i >= d.rows {
		panic(fmt.Sprintf("matrix: row %d out of bounds %d", i, d.rows))
	}
	return d.data[i*d.cols : (i+1)*d.cols]
}

// Data returns the underlying row-major storage without copying.
func (d *Dense) Data() []float64 { return d.data }

// Col returns column j as a newly allocated slice.
func (d *Dense) Col(j int) []float64 {
	if j < 0 || j >= d.cols {
		panic(fmt.Sprintf("matrix: column %d out of bounds %d", j, d.cols))
	}
	out := make([]float64, d.rows)
	for i := 0; i < d.rows; i++ {
		out[i] = d.data[i*d.cols+j]
	}
	return out
}

// T returns the transpose as a new dense matrix.
func (d *Dense) T() *Dense {
	t := NewDense(d.cols, d.rows)
	for i := 0; i < d.rows; i++ {
		ri := d.data[i*d.cols : (i+1)*d.cols]
		for j, v := range ri {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Equal reports whether d and o have identical shape and elements.
func (d *Dense) Equal(o *Dense) bool {
	if d.rows != o.rows || d.cols != o.cols {
		return false
	}
	for i, v := range d.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// EqualApprox reports whether d and o agree element-wise within tol.
func (d *Dense) EqualApprox(o *Dense, tol float64) bool {
	if d.rows != o.rows || d.cols != o.cols {
		return false
	}
	for i, v := range d.data {
		if math.Abs(v-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (d *Dense) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Dense %dx%d", d.rows, d.cols)
	if d.rows > maxShow || d.cols > maxShow {
		return b.String()
	}
	for i := 0; i < d.rows; i++ {
		b.WriteString("\n[")
		for j := 0; j < d.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", d.At(i, j))
		}
		b.WriteByte(']')
	}
	return b.String()
}

func (d *Dense) sameShape(o *Dense, op string) {
	if d.rows != o.rows || d.cols != o.cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, d.rows, d.cols, o.rows, o.cols))
	}
}

// Add stores a+b into a new matrix.
func Add(a, b *Dense) *Dense {
	a.sameShape(b, "Add")
	out := NewDense(a.rows, a.cols)
	for i, v := range a.data {
		out.data[i] = v + b.data[i]
	}
	return out
}

// ScaleRows multiplies row i of a by v[i] and returns a new matrix. It is the
// broadcast used by the paper for I·e (weighting indicator rows by errors).
func ScaleRows(a *Dense, v []float64) *Dense {
	if len(v) != a.rows {
		panic(fmt.Sprintf("matrix: ScaleRows vector length %d vs %d rows", len(v), a.rows))
	}
	out := NewDense(a.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		s := v[i]
		ri := a.data[i*a.cols : (i+1)*a.cols]
		oi := out.data[i*a.cols : (i+1)*a.cols]
		for j, x := range ri {
			oi[j] = x * s
		}
	}
	return out
}

// CmpScalar returns a 0/1 matrix where out[i,j] = 1 iff cmp(a[i,j], s) holds.
func CmpScalar(a *Dense, s float64, cmp func(x, s float64) bool) *Dense {
	out := NewDense(a.rows, a.cols)
	for i, v := range a.data {
		if cmp(v, s) {
			out.data[i] = 1
		}
	}
	return out
}

// EqScalar returns the 0/1 indicator of a[i,j] == s.
func EqScalar(a *Dense, s float64) *Dense {
	return CmpScalar(a, s, func(x, s float64) bool { return x == s })
}

// SelectRows returns a new matrix with the rows of a at the given indices,
// in order.
func SelectRows(a *Dense, idx []int) *Dense {
	out := NewDense(len(idx), a.cols)
	for k, i := range idx {
		if i < 0 || i >= a.rows {
			panic(fmt.Sprintf("matrix: SelectRows index %d out of bounds %d", i, a.rows))
		}
		copy(out.Row(k), a.Row(i))
	}
	return out
}

// SelectCols returns a new matrix with the columns of a at the given indices,
// in order.
func SelectCols(a *Dense, idx []int) *Dense {
	out := NewDense(a.rows, len(idx))
	for i := 0; i < a.rows; i++ {
		ri := a.Row(i)
		oi := out.Row(i)
		for k, j := range idx {
			if j < 0 || j >= a.cols {
				panic(fmt.Sprintf("matrix: SelectCols index %d out of bounds %d", j, a.cols))
			}
			oi[k] = ri[j]
		}
	}
	return out
}

// UpperTriEq returns the (row, col) index pairs of the strict upper triangle
// of a square matrix where the value equals v — the paper's
// upper.tri((S·Sᵀ) = (L−2), values=TRUE) pair-join primitive.
func UpperTriEq(a *Dense, v float64) (rows, cols []int) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("matrix: UpperTriEq of non-square %dx%d", a.rows, a.cols))
	}
	for i := 0; i < a.rows; i++ {
		ri := a.Row(i)
		for j := i + 1; j < a.cols; j++ {
			if ri[j] == v {
				rows = append(rows, i)
				cols = append(cols, j)
			}
		}
	}
	return rows, cols
}
