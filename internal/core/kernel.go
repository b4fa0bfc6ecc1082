package core

import (
	"fmt"
	"math/bits"
	"sync"

	"sliceline/internal/matrix"
)

// Kernel evaluates slice candidates against one row partition of the one-hot
// matrix with either the fused CSR kernel (EvalPartitionWeighted) or the
// packed-bitset kernel (EvalBitsetWeighted), chosen once by column density.
// Both kernels accumulate every candidate over its matching rows in ascending
// row order, so the choice changes speed, never the statistics' bits.
//
// When every error is 0 or 1 and the weights are nil or 0/1 (classification
// inaccuracy, sliding windows), the bitset path packs the binary layout
// instead of row order: in every column the rows of weight 1 that erred come
// first, in ascending row order, then the other rows of weight 1, and rows of
// weight 0 are left out. The two blocks share their boundary word. A
// candidate's error count is then the popcount of its columns' AND over the
// erring block, and its size that count plus the popcount over the rest: one
// popcount per word, and no error or weight word read (layoutCounts).
// Binary counts are integers, which float64 adds exactly in any order, so the
// layout returns the bits of the row-ordered loops.
//
// The packing happens at most once per Kernel, on its first bitset
// evaluation, and is shared by all subsequent levels — the pack cost is
// O(nnz + rows·cols/64) against per-level scans it saves. A Kernel is safe
// for concurrent Eval calls on disjoint output slices.
type Kernel struct {
	x    *matrix.CSR // nil for a Kernel over packed columns
	e, w []float64

	bitset   bool // density heuristic, fixed at construction
	binary   bool // bitset with 0/1 errors and weights, fixed at construction
	packOnce sync.Once
	bits     *matrix.ColumnBits // row order, or the binary layout of a binary Kernel
	errRows  int                // binary layout: rows [0, errRows) of bits erred
}

// NewKernel wraps a partition (one-hot matrix, error vector, optional row
// weights), selecting the kernel by the matrix's column density and the
// binary layout by the error and weight values. The layout places every row
// by its error and weight, so it needs one of each per row.
func NewKernel(x *matrix.CSR, e, w []float64) *Kernel {
	bitset := bitsetProfitable(x)
	perRow := len(e) == x.Rows() && (w == nil || len(w) == x.Rows())
	return &Kernel{x: x, e: e, w: w, bitset: bitset, binary: bitset && perRow && binaryValues(e) && binaryValues(w)}
}

// NewPackedKernel wraps an unweighted partition whose columns arrive already
// packed in row order (the Dist-PFor wire's payload for continuous errors).
// It takes the bitset path's general loop, which returns the binary layout's
// bits on 0/1 errors too. It keeps no CSR.
func NewPackedKernel(cb *matrix.ColumnBits, e []float64) *Kernel {
	return &Kernel{e: e, bits: cb, bitset: true}
}

// NewPackedBinaryKernel wraps an unweighted partition with 0/1 errors whose
// columns arrive already packed in the binary layout (the Dist-PFor wire's
// payload for 0/1 errors): rows [0, errRows) of cb erred, the rest did not.
// It refuses an erring-row count outside [0, cb.Rows()].
func NewPackedBinaryKernel(cb *matrix.ColumnBits, errRows int) (*Kernel, error) {
	if errRows < 0 || errRows > cb.Rows() {
		return nil, fmt.Errorf("core: %d erring rows in a binary layout of %d rows", errRows, cb.Rows())
	}
	return &Kernel{bits: cb, bitset: true, binary: true, errRows: errRows}, nil
}

// rowVals is the row side of a row-ordered bitset evaluation: the errors, the
// optional row weights (nil means unit weights) and, for the incremental
// memo's binary loop over 0/1 errors, their packed words. Non-nil eb selects
// that loop, which is unweighted.
type rowVals struct {
	e, w []float64
	eb   []uint64
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

// packBinaryLayout packs x's columns in the binary layout (see Kernel) and
// returns them with the erring-row count. e and w hold only 0 and 1 (w may be
// nil). Two running positions place the rows: an erring row takes the
// erring block's next bit, any other row of weight 1 the other block's.
func packBinaryLayout(x *matrix.CSR, e, w []float64) (*matrix.ColumnBits, int) {
	rows, errRows := 0, 0
	for i, ei := range e {
		if w == nil || w[i] != 0 {
			rows++
			if ei != 0 {
				errRows++
			}
		}
	}
	per := (rows + 63) / 64
	words := make([]uint64, x.Cols()*per)
	erring, other := 0, errRows
	for i, ei := range e {
		if w != nil && w[i] == 0 {
			continue
		}
		p := &other
		if ei != 0 {
			p = &erring
		}
		k, bit := *p>>6, uint64(1)<<uint(*p&63)
		*p++
		for _, c := range x.RowEntries(i) {
			words[c*per+k] |= bit
		}
	}
	cb, err := matrix.NewColumnBits(rows, x.Cols(), words)
	if err != nil {
		panic("core: binary layout: " + err.Error()) // the words are sized and placed for rows
	}
	return cb, errRows
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

// Binary reports whether Eval runs the binary layout's loop: the bitset path
// with every error, and every weight, 0 or 1.
func (k *Kernel) Binary() bool { return k.binary }

// Backend names the selected path for tracing ("bitset" or "fused").
func (k *Kernel) Backend() string {
	if k.UsesBitset() {
		return "bitset"
	}
	return "fused"
}

// Bits returns the packed columns, packing them on first use: in the binary
// layout for a binary Kernel (its first ErrRows rows erred, and its rows of
// weight 0 are left out), in row order otherwise.
func (k *Kernel) Bits() *matrix.ColumnBits {
	k.packOnce.Do(func() {
		switch {
		case k.bits != nil:
		case k.binary:
			k.bits, k.errRows = packBinaryLayout(k.x, k.e, k.w)
		default:
			k.bits = matrix.PackColumns(k.x)
		}
	})
	return k.bits
}

// ErrRows returns how many leading rows of a binary Kernel's packed columns
// erred, packing them on first use; 0 for any other Kernel.
func (k *Kernel) ErrRows() int {
	k.Bits()
	return k.errRows
}

// Eval evaluates the level-L candidates, accumulating into ss/se/sm (callers
// pass zeroed slices of length len(cols)), with the same statistics contract
// as EvalPartitionWeighted. The CSR path takes its automatic block size; the
// bitset path parallelizes over candidates instead of sharing scans.
func (k *Kernel) Eval(cols [][]int, level int, ss, se, sm []float64) {
	switch {
	case k.binary:
		cb, errRows := k.Bits(), k.ErrRows()
		matrix.ParallelFor(len(cols), func(lo, hi int) {
			evalBinaryRange(cb, errRows, cols, lo, hi, ss, se, sm)
		})
	case k.bitset:
		EvalBitsetWeighted(k.Bits(), k.e, k.w, cols, ss, se, sm)
	default:
		EvalPartitionWeighted(k.x, k.e, k.w, cols, level, 0, ss, se, sm)
	}
}

// evalBinaryRange is the binary layout's level loop: it evaluates candidates
// [s0,s1) against columns packed erring rows first, rows [0, errRows) of cb
// having erred (layoutCounts). The maximum tuple error is 1 exactly when a
// matching row erred, as in the general loop. It accumulates into ss/se/sm
// like evalBitsetRange and performs no allocations.
func evalBinaryRange(cb *matrix.ColumnBits, errRows int, cols [][]int, s0, s1 int, ss, se, sm []float64) {
	for s := s0; s < s1; s++ {
		if len(cols[s]) == 0 {
			continue
		}
		cs, ce := layoutCounts(cb, cols[s], errRows)
		ss[s] += float64(cs)
		se[s] += float64(ce)
		if ce > 0 && sm[s] < 1 {
			sm[s] = 1
		}
	}
}

// layoutCounts counts the rows of the binary layout cb that hold every
// column of cand (cs) and how many of those are among the first errRows
// (ce): the popcount of the columns' AND over the erring block's full words,
// plus its share of the boundary word under a mask, and the popcount over
// the boundary word and the words after it for the rest of cs — one
// popcount per word (two on the boundary word, which is read once), no
// error or weight word read, and no data-dependent branch (on dense one-hot
// columns a zero-word skip mispredicts more than it saves). Candidates of up
// to three columns — levels 1–3, where most candidates of a run sit — take
// the fused loop; wider ones AND a stack tile at a time (andTile), so no
// word loop calls out and nothing is allocated.
func layoutCounts(cb *matrix.ColumnBits, cand []int, errRows int) (cs, ce int) {
	full, mask := errRows>>6, uint64(1)<<uint(errRows&63)-1
	words := cb.Words()
	if len(cand) > 3 {
		var tile [64]uint64
		for k := 0; k < words; k += len(tile) {
			t := tile[:min(len(tile), words-k)]
			andTile(t, cb, cand, k)
			split := min(max(full-k, 0), len(t))
			n := onesCount(t[:split])
			ce += n
			cs += n + onesCount(t[split:])
			if split < len(t) && k+split == full {
				ce += bits.OnesCount64(t[split] & mask)
			}
		}
		return cs, ce
	}
	// Shorter candidates repeat their last column: x & x == x.
	last := len(cand) - 1
	a := cb.Col(cand[0])
	b := cb.Col(cand[min(1, last)])
	c := cb.Col(cand[min(2, last)])
	ce = andCount(a[:full], b[:full], c[:full])
	cs = ce
	if full < words {
		m := a[full] & b[full] & c[full]
		ce += bits.OnesCount64(m & mask)
		cs += bits.OnesCount64(m) + andCount(a[full+1:], b[full+1:], c[full+1:])
	}
	return cs, ce
}

// andCount returns the popcount of a AND b AND c; b and c are at least as
// long as a.
func andCount(a, b, c []uint64) (n int) {
	b, c = b[:len(a)], c[:len(a)]
	for k := range a {
		n += bits.OnesCount64(a[k] & b[k] & c[k])
	}
	return n
}

// onesCount returns the popcount of t.
func onesCount(t []uint64) (n int) {
	for _, m := range t {
		n += bits.OnesCount64(m)
	}
	return n
}

// andTile fills t with words [k, k+len(t)) of the AND of cand's columns, one
// column at a time.
func andTile(t []uint64, cb *matrix.ColumnBits, cand []int, k int) {
	copy(t, cb.Col(cand[0])[k:])
	for _, c := range cand[1:] {
		src := cb.Col(c)[k:]
		src = src[:len(t)]
		for i := range t {
			t[i] &= src[i]
		}
	}
}

// EvalBitsetWeighted is the packed-bitset evaluation kernel: per candidate,
// the bitsets of its one-hot columns are ANDed word-wise and the surviving
// rows counted with OnesCount64 (slice sizes) and enumerated with
// TrailingZeros64 (error sums and maxima) — the evalBitsetFrom loop, which
// the incremental memo and dist workers over continuous errors run too.
// Candidates are split across MaxWorkers goroutines; every candidate is
// computed whole, in ascending row order, so results are deterministic
// independent of scheduling. It accumulates into ss/se/sm like
// EvalPartitionWeighted (callers pass zeroed slices; nil w means unit
// weights). It always runs the general loop; a Kernel with 0/1 errors and
// weights runs the binary layout's loop instead.
func EvalBitsetWeighted(cb *matrix.ColumnBits, e, w []float64, cols [][]int, ss, se, sm []float64) {
	r := rowVals{e: e, w: w}
	matrix.ParallelFor(len(cols), func(lo, hi int) {
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

// evalBitsetFrom is the row-ordered bitset loop: it evaluates one candidate
// (one-hot column ids of cb) for rows [from, cb.Rows()), seeded with the
// accumulated statistics of rows [0, from). from = 0 with zero seeds is a
// plain full evaluation, which is how evalBitsetRange runs every batch
// candidate. Seeding with a prior generation's stored values and continuing
// in ascending row order produces the same float64 addition sequence as one
// full sequential pass, so the incremental memo's result is bit-identical to
// evaluating all rows from scratch — by construction, since both run this
// loop. (The one aggregate whose addition grouping differs, the unweighted
// whole-word popcount into sumS, stays exact because slice sizes are
// integers below 2^53.) It performs no allocations.
//
// Given packed 0/1 error words (r.eb, the memo's), it runs binaryCounts
// instead and adds the integer counts to the seeds. With 0/1 errors every
// partial sum of the general loop is an integer below 2^53, which float64
// adds exactly in any grouping, and the general maximum rises to 1 exactly
// when a matching row erred — so both loops return the same bits.
func evalBitsetFrom(cb *matrix.ColumnBits, r rowVals, cand []int, from int, seedSS, seedSE, seedSM float64) (float64, float64, float64) {
	sumS, sumE, maxE := seedSS, seedSE, seedSM
	nc := len(cand)
	if nc == 0 || from >= cb.Rows() {
		return sumS, sumE, maxE
	}
	if r.eb != nil {
		cs, ce := binaryCounts(cb, r.eb, cand, from)
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

// binaryCounts is the incremental memo's binary loop over row-ordered
// columns and packed 0/1 errors eb: for rows [from, cb.Rows()) it counts the
// rows matching every column of cand and how many of those erred, one AND
// chain and two popcounts per word. The memo continues each candidate from
// the first row its stored statistics do not cover, which the binary layout
// (erring rows first) cannot express, so it keeps row order. Rows below from
// are masked out of the first word; the ragged tail is zero in every packed
// column. Candidates of up to three columns take the fused loop here, wider
// ones a stack tile at a time.
func binaryCounts(cb *matrix.ColumnBits, eb []uint64, cand []int, from int) (cs, ce int) {
	k0, words := from>>6, cb.Words()
	mask := ^uint64(0) << uint(from&63)
	if len(cand) > 3 {
		var tile [64]uint64
		for k := k0; k < words; k += len(tile) {
			t := tile[:min(len(tile), words-k)]
			andTile(t, cb, cand, k)
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
	eb = eb[k0:words]
	// Shorter candidates repeat their last column: x & x == x.
	last := len(cand) - 1
	a := cb.Col(cand[0])[k0:words]
	b := cb.Col(cand[min(1, last)])[k0:words]
	c := cb.Col(cand[min(2, last)])[k0:words]
	for k := range eb {
		m := a[k] & b[k] & c[k] & mask
		mask = ^uint64(0)
		cs += bits.OnesCount64(m)
		ce += bits.OnesCount64(m & eb[k])
	}
	return cs, ce
}
