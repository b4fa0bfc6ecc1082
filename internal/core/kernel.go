package core

import (
	"math/bits"
	"sync"

	"sliceline/internal/matrix"
)

// Kernel evaluates slice candidates against one row partition of the one-hot
// matrix with either the fused CSR kernel (EvalPartitionWeighted) or the
// packed-bitset kernel (EvalBitsetWeighted), chosen once by column density.
// Both kernels accumulate every candidate over its matching rows in ascending
// row order, so the choice changes speed, never the statistics' bits. When
// every error is 0 or 1 and the weights are nil or 0/1 (classification
// inaccuracy, sliding windows), the bitset path counts with the exact binary
// loop instead (see evalBitsetFrom). The bitset packing happens at most once
// per Kernel, on its first bitset evaluation, and is shared by all subsequent
// levels — the pack cost is O(nnz + rows·cols/64) against per-level scans it
// saves. A Kernel is safe for concurrent Eval calls on disjoint output slices.
type Kernel struct {
	x    *matrix.CSR // nil for a Kernel over packed columns (NewPackedKernel)
	e, w []float64

	bitset   bool // density heuristic, fixed at construction
	binary   bool // bitset with 0/1 errors and weights, fixed at construction
	packOnce sync.Once
	bits     *matrix.ColumnBits
	eb, wb   []uint64 // packed e and w of a binary Kernel, beside bits
}

// NewKernel wraps a partition (one-hot matrix, error vector, optional row
// weights), selecting the kernel by the matrix's column density and the
// bitset loop by the error and weight values.
func NewKernel(x *matrix.CSR, e, w []float64) *Kernel {
	bitset := bitsetProfitable(x)
	return &Kernel{x: x, e: e, w: w, bitset: bitset, binary: bitset && binaryValues(e) && binaryValues(w)}
}

// NewPackedKernel wraps an unweighted partition whose columns arrive
// already packed (the Dist-PFor wire's bitset payload). It takes the bitset
// path, and the binary loop for 0/1 errors: the choice NewKernel makes on
// the CSR the columns were packed from. It keeps no CSR.
func NewPackedKernel(cb *matrix.ColumnBits, e []float64) *Kernel {
	return &Kernel{e: e, bits: cb, bitset: true, binary: binaryValues(e)}
}

// rowVals is the row side of a bitset evaluation: the errors, the optional
// row weights (nil means unit weights) and, when every error and weight is 0
// or 1, their packed words. Non-nil eb selects evalBitsetFrom's binary loop,
// and wb is then nil exactly when w is.
type rowVals struct {
	e, w   []float64
	eb, wb []uint64
}

// binaryValues reports whether every value is 0 or 1 (−0 counts as 0).
func binaryValues(v []float64) bool {
	for _, x := range v {
		if x != 0 && x != 1 {
			return false
		}
	}
	return true
}

// packBinary packs a 0/1 vector in the ColumnBits column layout: row i is
// bit i%64 of word i/64, and the ragged tail stays zero.
func packBinary(v []float64) []uint64 {
	out := make([]uint64, (len(v)+63)/64)
	for i, x := range v {
		if x != 0 {
			out[i>>6] |= 1 << uint(i&63)
		}
	}
	return out
}

// bitsetProfitable reports whether the packed-bitset kernel is expected to
// beat the fused CSR kernel on this matrix. The bitset kernel touches
// ceil(n/64) words per candidate column regardless of sparsity; the CSR
// kernel touches only stored entries. Break-even sits where the average
// column carries one set bit per 64-bit word, i.e. column density 1/64 —
// one-hot features with domains below ~64 are above it, ultra-high-cardinality
// features (large Criteo-style domains) fall below it.
func bitsetProfitable(x *matrix.CSR) bool {
	n, c := x.Rows(), x.Cols()
	if n == 0 || c == 0 {
		return false
	}
	return float64(x.NNZ())*64 >= float64(n)*float64(c)
}

// Rows returns the partition's row count.
func (k *Kernel) Rows() int {
	if k.x == nil {
		return k.bits.Rows()
	}
	return k.x.Rows()
}

// Cols returns the partition's column count.
func (k *Kernel) Cols() int {
	if k.x == nil {
		return k.bits.Cols()
	}
	return k.x.Cols()
}

// UsesBitset reports which path Eval takes.
func (k *Kernel) UsesBitset() bool { return k.bitset }

// Binary reports whether Eval runs the bitset kernel's exact binary loop:
// the bitset path with every error, and every weight, 0 or 1.
func (k *Kernel) Binary() bool { return k.binary }

// Backend names the selected path for tracing ("bitset" or "fused").
func (k *Kernel) Backend() string {
	if k.UsesBitset() {
		return "bitset"
	}
	return "fused"
}

// Bits returns the packed columns, packing them on first use together with
// the 0/1 error and weight words of a binary Kernel.
func (k *Kernel) Bits() *matrix.ColumnBits {
	k.packOnce.Do(func() {
		if k.bits == nil {
			k.bits = matrix.PackColumns(k.x)
		}
		if k.binary {
			k.eb = packBinary(k.e)
			if k.w != nil {
				k.wb = packBinary(k.w)
			}
		}
	})
	return k.bits
}

// Eval evaluates the level-L candidates, accumulating into ss/se/sm (callers
// pass zeroed slices of length len(cols)), with the same statistics contract
// as EvalPartitionWeighted. blockSize only applies to the CSR path; the
// bitset path parallelizes over candidates instead of sharing scans.
func (k *Kernel) Eval(cols [][]int, level, blockSize int, ss, se, sm []float64) {
	switch {
	case k.binary:
		cb := k.Bits() // packs eb and wb too: read them after
		evalBitsetLevel(cb, rowVals{e: k.e, w: k.w, eb: k.eb, wb: k.wb}, cols, ss, se, sm)
	case k.bitset:
		EvalBitsetWeighted(k.Bits(), k.e, k.w, cols, ss, se, sm)
	default:
		EvalPartitionWeighted(k.x, k.e, k.w, cols, level, blockSize, ss, se, sm)
	}
}

// EvalBitsetWeighted is the packed-bitset evaluation kernel: per candidate,
// the bitsets of its one-hot columns are ANDed word-wise and the surviving
// rows counted with OnesCount64 (slice sizes) and enumerated with
// TrailingZeros64 (error sums and maxima) — the evalBitsetFrom loop, which
// the incremental memo and dist workers run too. Candidates are split across
// MaxWorkers goroutines; every candidate is computed whole, in ascending row
// order, so results are deterministic independent of scheduling. It
// accumulates into ss/se/sm like EvalPartitionWeighted (callers pass zeroed
// slices; nil w means unit weights). It always runs the general loop; a
// Kernel with 0/1 errors and weights runs the binary one instead.
func EvalBitsetWeighted(cb *matrix.ColumnBits, e, w []float64, cols [][]int, ss, se, sm []float64) {
	evalBitsetLevel(cb, rowVals{e: e, w: w}, cols, ss, se, sm)
}

// evalBitsetLevel shards one level's candidates across MaxWorkers
// goroutines, each running evalBitsetRange.
func evalBitsetLevel(cb *matrix.ColumnBits, r rowVals, cols [][]int, ss, se, sm []float64) {
	n := len(cols)
	if n == 0 {
		return
	}
	matrix.ParallelFor(n, func(lo, hi int) {
		evalBitsetRange(cb, r, cols, lo, hi, ss, se, sm)
	})
}

// EvalBitsetSerial evaluates all candidates on the calling goroutine. It is
// the allocation-free level loop the bench regression gate pins at
// 0 allocs/op, and the kernel the parallel wrapper shards.
func EvalBitsetSerial(cb *matrix.ColumnBits, e, w []float64, cols [][]int, ss, se, sm []float64) {
	evalBitsetRange(cb, rowVals{e: e, w: w}, cols, 0, len(cols), ss, se, sm)
}

// evalBitsetRange evaluates candidates [s0,s1), each as one evalBitsetFrom
// pass from row 0 seeded with its accumulators. Callers pass zeroed
// accumulators, so every candidate gets the addition sequence of a plain
// full pass. It performs no allocations.
func evalBitsetRange(cb *matrix.ColumnBits, r rowVals, cols [][]int, s0, s1 int, ss, se, sm []float64) {
	for s := s0; s < s1; s++ {
		ss[s], se[s], sm[s] = evalBitsetFrom(cb, r, cols[s], 0, ss[s], se[s], sm[s])
	}
}

// evalBitsetFrom is the one bitset loop: it evaluates one candidate (one-hot
// column ids of cb) for rows [from, cb.Rows()), seeded with the accumulated
// statistics of rows [0, from). from = 0 with zero seeds is a plain full
// evaluation, which is how evalBitsetRange runs every batch candidate.
// Seeding with a prior generation's stored values and continuing in
// ascending row order produces the same float64 addition sequence as one
// full sequential pass, so the incremental memo's result is bit-identical to
// evaluating all rows from scratch — by construction, since both run this
// loop. (The one aggregate whose addition grouping differs, the unweighted
// whole-word popcount into sumS, stays exact because slice sizes are
// integers below 2^53.) It performs no allocations.
//
// Given packed 0/1 error words (r.eb), it runs binaryCounts instead and adds
// the integer counts to the seeds. With 0/1 errors and weights every partial
// sum of the general loop is an integer below 2^53, which float64 adds
// exactly in any grouping, and the general maximum rises to 1 exactly when a
// matching row with positive weight erred — so both loops return the same
// bits.
func evalBitsetFrom(cb *matrix.ColumnBits, r rowVals, cand []int, from int, seedSS, seedSE, seedSM float64) (float64, float64, float64) {
	sumS, sumE, maxE := seedSS, seedSE, seedSM
	nc := len(cand)
	if nc == 0 || from >= cb.Rows() {
		return sumS, sumE, maxE
	}
	if r.eb != nil {
		cs, ce := binaryCounts(cb, r.eb, r.wb, cand, from)
		if ce > 0 && maxE < 1 {
			maxE = 1
		}
		return sumS + float64(cs), sumE + float64(ce), maxE
	}
	e, w := r.e, r.w
	words := cb.Words()
	a := cb.Col(cand[0])
	var b, c []uint64
	if nc > 1 {
		b = cb.Col(cand[1])
	}
	if nc > 2 {
		c = cb.Col(cand[2])
	}
	w0 := from >> 6
	mask0 := ^uint64(0) << uint(from&63)
	for k := w0; k < words; k++ {
		m := a[k]
		if k == w0 {
			m &= mask0
		}
		if m == 0 {
			continue
		}
		if b != nil {
			m &= b[k]
			if c != nil && m != 0 {
				m &= c[k]
				for j := 3; j < nc && m != 0; j++ {
					m &= cb.Col(cand[j])[k]
				}
			}
		}
		if m == 0 {
			continue
		}
		base := k << 6
		if w == nil {
			sumS += float64(bits.OnesCount64(m))
			for t := m; t != 0; t &= t - 1 {
				ei := e[base+bits.TrailingZeros64(t)]
				sumE += ei
				if ei > maxE {
					maxE = ei
				}
			}
		} else {
			for t := m; t != 0; t &= t - 1 {
				i := base + bits.TrailingZeros64(t)
				wi := w[i]
				ei := e[i]
				sumS += wi
				sumE += wi * ei
				if wi > 0 && ei > maxE {
					maxE = ei
				}
			}
		}
	}
	return sumS, sumE, maxE
}

// binaryCounts is the binary loop: for rows [from, cb.Rows()) it counts the
// rows matching every column of cand (and, when wb is non-nil, carrying
// weight 1) and how many of those erred. Each word is one AND chain and two
// popcounts with no data-dependent branch — on dense one-hot columns a
// zero-word skip mispredicts more than it saves. Rows below from are masked
// out of the first word; the ragged tail is zero in every packed column.
// Unweighted candidates of up to three columns — levels 1–3, where most
// candidates of a run sit — take the fused loop here; the rest take
// binaryCountsTiled.
func binaryCounts(cb *matrix.ColumnBits, eb, wb []uint64, cand []int, from int) (cs, ce int) {
	if len(cand) > 3 || wb != nil {
		return binaryCountsTiled(cb, eb, wb, cand, from)
	}
	k0, words := from>>6, cb.Words()
	eb = eb[k0:words]
	// Shorter candidates repeat their last column: x & x == x.
	last := len(cand) - 1
	a := cb.Col(cand[0])[k0:words]
	b := cb.Col(cand[min(1, last)])[k0:words]
	c := cb.Col(cand[min(2, last)])[k0:words]
	mask := ^uint64(0) << uint(from&63)
	for k := range eb {
		m := a[k] & b[k] & c[k] & mask
		mask = ^uint64(0)
		cs += bits.OnesCount64(m)
		ce += bits.OnesCount64(m & eb[k])
	}
	return cs, ce
}

// binaryCountsTiled is binaryCounts for weighted or wider candidates. Per
// tile of up to 64 words it ANDs the columns, then the weights, into a stack
// buffer one operand at a time and then counts, so no word loop calls out
// and nothing is allocated.
func binaryCountsTiled(cb *matrix.ColumnBits, eb, wb []uint64, cand []int, from int) (cs, ce int) {
	var tile [64]uint64
	words := cb.Words()
	mask := ^uint64(0) << uint(from&63)
	for k := from >> 6; k < words; k += len(tile) {
		t := tile[:min(len(tile), words-k)]
		copy(t, cb.Col(cand[0])[k:])
		for _, c := range cand[1:] {
			andWords(t, cb.Col(c)[k:])
		}
		if wb != nil {
			andWords(t, wb[k:])
		}
		t[0] &= mask
		mask = ^uint64(0)
		e := eb[k : k+len(t)]
		for i, m := range t {
			cs += bits.OnesCount64(m)
			ce += bits.OnesCount64(m & e[i])
		}
	}
	return cs, ce
}

// andWords ANDs src into dst word by word.
func andWords(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &= src[i]
	}
}
