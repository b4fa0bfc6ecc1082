package core

import (
	"math"

	"sliceline/internal/stats"
)

// Statistical guardrails: every decoded result slice is annotated with the
// one-sided Welch's t-test p-value of "this slice's mean error exceeds the
// rest of the data's" and its Benjamini–Hochberg q-value over the result's
// top-K family. The test consumes the (weighted) count, sum and
// sum-of-squares summaries of the slice and its complement: count and sum
// are exactly the ss/se accumulators the kernel already produced for every
// top-K entry, and the complement's summaries follow by subtraction from the
// global totals — so no candidate is ever re-scanned during enumeration.
// Only the sum of squares is not tracked by the hot kernels (adding a fourth
// accumulator would tax every candidate of every level for a statistic only
// the K winners need). On 0/1 errors it is the error sum itself: e² = e, so
// Σ w_i·e_i² adds the terms of se in se's order and has its bits. Otherwise
// it is recovered by one O(nnz) pass over the one-hot matrix for the K final
// slices, on the driver, identically in every execution plan.

// annotate fills PValue/QValue/Significant on the decoded slices, which must
// be aligned index-for-index with the top-K entries they were decoded from.
func (st *state) annotate(slices []Slice, entries []tkEntry) {
	if len(slices) == 0 {
		return
	}
	sq := st.sliceSquares(entries)
	p := make([]float64, len(slices))
	for i := range entries {
		p[i] = st.welchP(entries[i].ss, entries[i].se, sq[i])
	}
	q := stats.BenjaminiHochberg(p)
	for i := range slices {
		slices[i].PValue = p[i]
		slices[i].QValue = q[i]
		slices[i].Significant = q[i] <= st.sigLevel
	}
}

// sliceSquares returns the weighted error sum of squares Σ w_i·e_i² over
// each entry's member rows: se itself on 0/1 errors, otherwise one pass over
// the one-hot matrix, whose row i belongs to an entry iff its columns
// contain all the entry's columns mapped back through cI (conjunctive
// predicates).
func (st *state) sliceSquares(entries []tkEntry) []float64 {
	sq := make([]float64, len(entries))
	if len(entries) == 0 {
		return sq
	}
	if binaryValues(st.e) {
		for j := range entries {
			sq[j] = entries[j].se
		}
		return sq
	}
	n := st.x.Rows()
	for i := 0; i < n; i++ {
		ei := st.e[i]
		if ei == 0 {
			continue // contributes nothing to any sum of squares
		}
		wi := 1.0
		if st.w != nil {
			wi = st.w[i]
			if wi == 0 {
				continue // retired row: excluded from every aggregate
			}
		}
		cols := st.x.RowEntries(i)
		wee := wi * ei * ei
		for j := range entries {
			if containsSorted(cols, entries[j].cols, st.origCols) {
				sq[j] += wee
			}
		}
	}
	return sq
}

// containsSorted reports whether the ascending list sup contains every
// element of the ascending list sub mapped through the increasing map orig.
func containsSorted(sup []int, sub []int32, orig []int) bool {
	k := 0
	for _, c := range sub {
		want := orig[c]
		for k < len(sup) && sup[k] < want {
			k++
		}
		if k == len(sup) || sup[k] != want {
			return false
		}
		k++
	}
	return true
}

// welchP computes the one-sided p-value for a slice summarized by its
// weighted size n1, error sum se and error sum of squares sq, tested
// against the rest of the data (totals minus the slice). Degenerate
// partitions — fewer than two (weighted) rows on either side — have no
// defined variance and report p = 1: never significant. The returned p is
// floored at the smallest positive float64: an exactly-zero p (both sides
// variance-free with different means) would be indistinguishable from the
// schema-v1 "no statistics" zero value in the JSON interchange form.
func (st *state) welchP(n1, se, sq float64) float64 {
	n2 := st.sc.n - n1
	if n1 <= 1 || n2 <= 1 {
		return 1
	}
	m1 := se / n1
	v1 := (sq - se*m1) / (n1 - 1)
	if v1 < 0 {
		v1 = 0 // cancellation guard; true variance is >= 0
	}
	se2 := st.sc.totalErr - se
	sq2 := st.totSq - sq
	if sq2 < 0 {
		sq2 = 0
	}
	m2 := se2 / n2
	v2 := (sq2 - se2*m2) / (n2 - 1)
	if v2 < 0 {
		v2 = 0
	}
	t, df := stats.Welch(m1, v1, n1, m2, v2, n2)
	return math.Max(stats.TCDFUpper(t, df), math.SmallestNonzeroFloat64)
}
