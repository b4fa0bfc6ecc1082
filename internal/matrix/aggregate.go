package matrix

import "math"

// ColSums returns the per-column sums of a dense matrix as a slice of length
// Cols. It corresponds to the paper's colSums(X).
func ColSums(a *Dense) []float64 {
	out := make([]float64, a.cols)
	for i := 0; i < a.rows; i++ {
		ri := a.Row(i)
		for j, v := range ri {
			out[j] += v
		}
	}
	return out
}

// ColMaxs returns the per-column maxima of a dense matrix. Columns of an
// empty (0-row) matrix report 0, matching the semantics the algorithm needs
// for max-error aggregation over empty slices.
func ColMaxs(a *Dense) []float64 {
	out := make([]float64, a.cols)
	if a.rows == 0 {
		return out
	}
	for j := range out {
		out[j] = math.Inf(-1)
	}
	for i := 0; i < a.rows; i++ {
		ri := a.Row(i)
		for j, v := range ri {
			if v > out[j] {
				out[j] = v
			}
		}
	}
	return out
}

// RowSums returns the per-row sums of a dense matrix.
func RowSums(a *Dense) []float64 {
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		s := 0.0
		for _, v := range a.Row(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// RowMaxs returns the per-row maxima of a dense matrix; empty-width rows
// report 0.
func RowMaxs(a *Dense) []float64 {
	out := make([]float64, a.rows)
	if a.cols == 0 {
		return out
	}
	for i := 0; i < a.rows; i++ {
		m := math.Inf(-1)
		for _, v := range a.Row(i) {
			if v > m {
				m = v
			}
		}
		out[i] = m
	}
	return out
}

// RowIndexMax returns, per row, the 0-based column index of the row maximum
// (first occurrence). It mirrors the paper's rowIndexMax primitive.
func RowIndexMax(a *Dense) []int {
	out := make([]int, a.rows)
	for i := 0; i < a.rows; i++ {
		best, bi := math.Inf(-1), 0
		for j, v := range a.Row(i) {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// CumSum returns the inclusive prefix sums of v, the paper's cumsum.
func CumSum(v []float64) []float64 {
	out := make([]float64, len(v))
	s := 0.0
	for i, x := range v {
		s += x
		out[i] = s
	}
	return out
}
