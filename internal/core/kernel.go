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
// row order, so the choice changes speed, never the statistics' bits. The
// bitset packing happens at most once per Kernel, on its first bitset
// evaluation, and is shared by all subsequent levels — the pack cost is
// O(nnz + rows·cols/64) against per-level scans it saves. A Kernel is safe
// for concurrent Eval calls on disjoint output slices.
type Kernel struct {
	x    *matrix.CSR
	e, w []float64

	bitset   bool // density heuristic, fixed at construction
	packOnce sync.Once
	bits     *matrix.ColumnBits
}

// NewKernel wraps a partition (one-hot matrix, error vector, optional row
// weights), selecting the kernel by the matrix's column density.
func NewKernel(x *matrix.CSR, e, w []float64) *Kernel {
	return &Kernel{x: x, e: e, w: w, bitset: bitsetProfitable(x)}
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
func (k *Kernel) Rows() int { return k.x.Rows() }

// UsesBitset reports which path Eval takes.
func (k *Kernel) UsesBitset() bool { return k.bitset }

// Backend names the selected path for tracing ("bitset" or "fused").
func (k *Kernel) Backend() string {
	if k.UsesBitset() {
		return "bitset"
	}
	return "fused"
}

// Bits returns the packed columns, packing them on first use.
func (k *Kernel) Bits() *matrix.ColumnBits {
	k.packOnce.Do(func() { k.bits = matrix.PackColumns(k.x) })
	return k.bits
}

// Eval evaluates the level-L candidates, accumulating into ss/se/sm (callers
// pass zeroed slices of length len(cols)), with the same statistics contract
// as EvalPartitionWeighted. blockSize only applies to the CSR path; the
// bitset path parallelizes over candidates instead of sharing scans.
func (k *Kernel) Eval(cols [][]int, level, blockSize int, ss, se, sm []float64) {
	if k.UsesBitset() {
		EvalBitsetWeighted(k.Bits(), k.e, k.w, cols, ss, se, sm)
		return
	}
	EvalPartitionWeighted(k.x, k.e, k.w, cols, level, blockSize, ss, se, sm)
}

// EvalBitsetWeighted is the packed-bitset evaluation kernel: per candidate,
// the bitsets of its one-hot columns are ANDed word-wise and the surviving
// rows counted with OnesCount64 (slice sizes) and enumerated with
// TrailingZeros64 (error sums and maxima) — the evalBitsetFrom loop, which
// the incremental memo and dist workers run too. Candidates are split across
// MaxWorkers goroutines; every candidate is computed whole, in ascending row
// order, so results are deterministic independent of scheduling. It
// accumulates into ss/se/sm like EvalPartitionWeighted (callers pass zeroed
// slices; nil w means unit weights).
func EvalBitsetWeighted(cb *matrix.ColumnBits, e, w []float64, cols [][]int, ss, se, sm []float64) {
	n := len(cols)
	if n == 0 {
		return
	}
	matrix.ParallelFor(n, func(lo, hi int) {
		evalBitsetRange(cb, e, w, cols, lo, hi, ss, se, sm)
	})
}

// EvalBitsetSerial evaluates all candidates on the calling goroutine. It is
// the allocation-free level loop the bench regression gate pins at
// 0 allocs/op, and the kernel the parallel wrapper shards.
func EvalBitsetSerial(cb *matrix.ColumnBits, e, w []float64, cols [][]int, ss, se, sm []float64) {
	evalBitsetRange(cb, e, w, cols, 0, len(cols), ss, se, sm)
}

// evalBitsetRange evaluates candidates [s0,s1), each as one evalBitsetFrom
// pass from row 0 seeded with its accumulators. Callers pass zeroed
// accumulators, so every candidate gets the addition sequence of a plain
// full pass. It performs no allocations.
func evalBitsetRange(cb *matrix.ColumnBits, e, w []float64, cols [][]int, s0, s1 int, ss, se, sm []float64) {
	for s := s0; s < s1; s++ {
		ss[s], se[s], sm[s] = evalBitsetFrom(cb, e, w, cols[s], 0, ss[s], se[s], sm[s])
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
func evalBitsetFrom(cb *matrix.ColumnBits, e, w []float64, cand []int, from int, seedSS, seedSE, seedSM float64) (float64, float64, float64) {
	sumS, sumE, maxE := seedSS, seedSE, seedSM
	nc := len(cand)
	if nc == 0 || from >= cb.Rows() {
		return sumS, sumE, maxE
	}
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
