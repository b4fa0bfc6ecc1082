// Package fptol is the repository's single source of truth for comparing
// floating-point slice statistics across SliceLine execution plans.
//
// The enumeration logic (candidate generation, pruning, top-K maintenance)
// is identical across every backend, so slice sizes (sums of 1.0, exact in
// float64 far beyond any realistic row count) and maximum tuple errors
// (max-reductions, order-independent) must match bit-for-bit. Total slice
// errors, however, are float64 summations whose parenthesization differs
// between plans: the local kernels (fused CSR and packed bitset, at any
// block size and worker count) add matching rows in row order and agree
// bit-for-bit, while the dense-intermediates program reduces indicator
// columns and the distributed backend adds per-partition partials.
// IEEE-754 addition is not associative, so these plans can
// legitimately differ in the last units-in-the-last-place (ULPs), and every
// derived score inherits that wobble.
//
// The principled bound: summing n non-negative terms in any order yields a
// relative error of at most (n-1)·eps (the condition number of a
// non-negative sum is 1), i.e. at most about n ULPs. Scores apply a further
// subtraction of the size penalty, which can amplify the relative error when
// the two terms nearly cancel; DefaultTol therefore combines a ULP bound
// sized for the row counts used in differential tests with a small absolute
// floor for scores near zero. Tests must use these helpers instead of
// ad-hoc epsilons so the tolerance story stays in one place.
package fptol

import "math"

// Tol is a two-sided tolerance: values are considered equal when they are
// within ULPs units-in-the-last-place of each other, or when their absolute
// difference is below Abs (covering near-zero values, whose ULP spacing is
// tiny and whose sign may flip under cancellation).
type Tol struct {
	ULPs uint64
	Abs  float64
}

// DefaultTol covers reordered non-negative summations of up to ~10^5 terms
// (n·eps ≈ 2^17·2^-52) plus score-level cancellation: 1<<18 ULPs is a
// relative error of about 6e-11, and the absolute floor handles scores that
// cancel toward zero. It is deliberately orders of magnitude tighter than
// the 1e-9 absolute epsilons it replaces for typical O(1) score magnitudes.
var DefaultTol = Tol{ULPs: 1 << 18, Abs: 1e-10}

// Exact demands bit-identical values (modulo +0/-0).
var Exact = Tol{ULPs: 0, Abs: 0}

// ULPDiff returns the distance between a and b in units-in-the-last-place:
// the number of representable float64 values strictly between them, plus one
// if they differ. NaNs and opposite-infinity pairs return MaxUint64.
func ULPDiff(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	if a == b {
		return 0 // also covers +0 == -0 and equal infinities
	}
	ia, ib := orderedBits(a), orderedBits(b)
	if ia > ib {
		ia, ib = ib, ia
	}
	d := uint64(ib - ia)
	if int64(d) < 0 { // crossed more than half the number line
		return math.MaxUint64
	}
	return d
}

// orderedBits maps a float64 onto a monotone int64 scale, so that ULP
// distance is plain integer subtraction even across the zero crossing.
func orderedBits(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

// Close reports whether a and b are equal within the tolerance.
func (t Tol) Close(a, b float64) bool {
	if a == b {
		return true
	}
	if math.Abs(a-b) <= t.Abs {
		return true
	}
	return ULPDiff(a, b) <= t.ULPs
}

// CloseSlices reports whether two equal-length slices are element-wise Close.
// Length mismatch is never close.
func (t Tol) CloseSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !t.Close(a[i], b[i]) {
			return false
		}
	}
	return true
}
