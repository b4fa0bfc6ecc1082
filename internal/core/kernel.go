package core

import (
	"fmt"
	"math/bits"
	"slices"

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
// The bitset path packs its columns once, when the Kernel is built, and
// every level reads that packing — the pack cost is O(nnz + rows·cols/64)
// against per-level scans it saves. core.Run builds one Kernel over the full
// one-hot width, evaluates the basic slices through it (evalBasic) and then
// narrows it to the columns that clear σ in place (narrow). A Kernel is safe
// for concurrent Eval calls on disjoint output slices.
type Kernel struct {
	x    *matrix.CSR // nil for a Kernel over packed columns
	e, w []float64

	bitset  bool               // density heuristic, decided at construction and by narrow
	binary  bool               // bitset with 0/1 errors and weights
	bits    *matrix.ColumnBits // bitset path: row order, or the binary layout of a binary Kernel
	errRows int                // binary layout: rows [0, errRows) of bits erred
}

// NewKernel wraps a partition (one-hot matrix, error vector, optional row
// weights), selecting the kernel by the matrix's column density and the
// binary layout by the error and weight values, and packs the columns when
// it selects the bitset path. The layout places every row by its error and
// weight, so it needs one of each per row.
func NewKernel(x *matrix.CSR, e, w []float64) *Kernel {
	k := &Kernel{x: x, e: e, w: w, bitset: bitsetProfitable(x)}
	k.pack()
	return k
}

// pack packs x's columns for the bitset path — in the binary layout when
// every error and weight is 0 or 1, in row order otherwise — and does nothing
// on the CSR path.
func (k *Kernel) pack() {
	if !k.bitset {
		return
	}
	perRow := len(k.e) == k.x.Rows() && (k.w == nil || len(k.w) == k.x.Rows())
	k.binary = perRow && binaryValues(k.e) && binaryValues(k.w)
	if k.binary {
		k.bits, k.errRows = packBinaryLayout(k.x, k.e, k.w)
	} else {
		k.bits = matrix.PackColumns(k.x)
	}
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
	return denseEnough(x.NNZ(), x.Rows(), x.Cols())
}

// denseEnough is bitsetProfitable's rule on counts: nnz entries over a
// rows × cols matrix reach column density 1/64.
func denseEnough(nnz, rows, cols int) bool {
	if rows == 0 || cols == 0 {
		return false
	}
	return float64(nnz)*64 >= float64(rows)*float64(cols)
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
	if k.bits == nil {
		return k.x.Cols()
	}
	return k.bits.Cols()
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

// Bits returns the bitset path's packed columns: in the binary layout for a
// binary Kernel (its first ErrRows rows erred, and its rows of weight 0 are
// left out), in row order otherwise. It is nil on the CSR path.
func (k *Kernel) Bits() *matrix.ColumnBits { return k.bits }

// ErrRows returns how many leading rows of a binary Kernel's packed columns
// erred; 0 for any other Kernel.
func (k *Kernel) ErrRows() int { return k.errRows }

// evalBasic evaluates every column as a one-predicate slice, level 1 of the
// enumeration (Equation 4: ss = colSums(X), se = eᵀX, sm = colMaxs(X ∘ e)),
// which is Equation 10 with S = I. It accumulates into ss/se/sm, zeroed
// slices of length Cols(). The binary layout counts each column's erring
// block and whole column with popcounts; every other Kernel takes the row
// pass over x.
func (k *Kernel) evalBasic(ss, se, sm []float64) {
	if !k.binary {
		basicRowPass(k.x, k.e, k.w, ss, se, sm)
		return
	}
	var cand [1]int32
	for c := range ss {
		cand[0] = int32(c)
		cs, ce := layoutCounts(k.bits, cand[:], k.errRows)
		ss[c], se[c] = float64(cs), float64(ce)
		if ce > 0 {
			sm[c] = 1
		}
	}
}

// basicRowPass evaluates every column of x as a one-predicate slice in one
// pass over the rows, accumulating into ss/se/sm: row i adds w[i] to ss and
// w[i]·e[i] to se of each of its columns (w[i] = 1 when w is nil) and
// raises their sm to e[i]; zero-weight (retired) rows are skipped like in
// every aggregate. Each column adds its rows in ascending order, as every
// level does, so level 1 has the bits of a one-column candidate at any level.
func basicRowPass(x *matrix.CSR, e, w []float64, ss, se, sm []float64) {
	for i := 0; i < x.Rows(); i++ {
		wi := 1.0
		if w != nil {
			if wi = w[i]; wi == 0 {
				continue
			}
		}
		ei := e[i]
		wei := wi * ei
		for _, c := range x.RowEntries(i) {
			ss[c] += wi
			se[c] += wei
			if ei > sm[c] {
				sm[c] = ei
			}
		}
	}
}

// evalBasicBits evaluates every column of the incremental memo's row-ordered
// bits as a one-predicate slice from its packed 0/1 errors eb, with
// binaryCounts, accumulating into ss/se/sm.
func evalBasicBits(cb *matrix.ColumnBits, eb []uint64, ss, se, sm []float64) {
	var cand [1]int32
	for c := range ss {
		cand[0] = int32(c)
		cs, ce := binaryCounts(cb, eb, cand[:], 0)
		ss[c], se[c] = float64(cs), float64(ce)
		if ce > 0 {
			sm[c] = 1
		}
	}
}

// narrow restricts the Kernel to the columns keep (strictly increasing), in
// place, and returns the entries of X[, keep]; column k becomes column
// keep[k]. The path is decided again by the kept columns' density, as for a
// Kernel built over X[, keep]. The bitset path moves the kept columns'
// packed words down over the dropped ones and counts their entries
// (keptNNZ); if they are dense enough it keeps its words, binary flag and
// erring-row count, since the rows, and so the layout, are unchanged.
// Otherwise, and on the CSR path, the Kernel selects the kept columns of x
// and packs them if the bitset path now wins. narrow must not run
// concurrently with Eval.
func (k *Kernel) narrow(keep []int) (nnz int) {
	if k.bitset {
		k.bits.KeepCols(keep)
		if nnz = k.keptNNZ(keep); denseEnough(nnz, k.x.Rows(), len(keep)) {
			return nnz
		}
		k.bitset, k.binary, k.bits, k.errRows = false, false, nil, 0
	}
	k.x = k.x.SelectCols(keep)
	k.bitset = bitsetProfitable(k.x)
	k.pack()
	return k.x.NNZ()
}

// keptNNZ counts the entries of X[, keep] once the packed words hold only
// the kept columns: their set bits, plus the kept entries of the rows of
// weight 0 that a binary layout leaves out.
func (k *Kernel) keptNNZ(keep []int) int {
	nnz := 0
	for c := range keep {
		nnz += onesCount(k.bits.Col(c))
	}
	if k.bits.Rows() == k.x.Rows() {
		return nnz
	}
	for i, wi := range k.w {
		if wi != 0 {
			continue
		}
		for _, c := range k.x.RowEntries(i) {
			if _, ok := slices.BinarySearch(keep, c); ok {
				nnz++
			}
		}
	}
	return nnz
}

// Eval evaluates the level-L candidates of the arena ids (candidate s at
// ids[s·L, (s+1)·L)), accumulating into ss/se/sm (callers pass zeroed slices
// of length len(ids)/L), with the same statistics contract as
// EvalPartitionWeighted. The CSR path takes its automatic block size; the
// bitset path parallelizes over candidates instead of sharing scans.
func (k *Kernel) Eval(ids []int32, L int, ss, se, sm []float64) {
	switch {
	case k.binary:
		matrix.ParallelFor(len(ids)/L, func(lo, hi int) {
			evalBinaryRange(k.bits, k.errRows, ids, L, lo, hi, ss, se, sm)
		})
	case k.bitset:
		EvalBitsetWeighted(k.bits, k.e, k.w, ids, L, ss, se, sm)
	default:
		EvalPartitionWeighted(k.x, k.e, k.w, ids, L, 0, ss, se, sm)
	}
}

// evalBinaryRange is the binary layout's level loop: it evaluates candidates
// [s0,s1) against columns packed erring rows first, rows [0, errRows) of cb
// having erred (layoutCounts). The maximum tuple error is 1 exactly when a
// matching row erred, as in the general loop. It accumulates into ss/se/sm
// like evalBitsetRange and performs no allocations.
func evalBinaryRange(cb *matrix.ColumnBits, errRows int, ids []int32, L, s0, s1 int, ss, se, sm []float64) {
	for s := s0; s < s1; s++ {
		cs, ce := layoutCounts(cb, ids[s*L:(s+1)*L], errRows)
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
func layoutCounts(cb *matrix.ColumnBits, cand []int32, errRows int) (cs, ce int) {
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
	a := cb.Col(int(cand[0]))
	b := cb.Col(int(cand[min(1, last)]))
	c := cb.Col(int(cand[min(2, last)]))
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

// andTile fills t with words [k, k+len(t)) of the AND of cand's columns,
// three columns per pass; where cand runs out, the last pass repeats its
// last column (x & x == x).
func andTile(t []uint64, cb *matrix.ColumnBits, cand []int32, k int) {
	n, last := len(t), len(cand)-1
	for j := 0; j <= last; j += 3 {
		a := cb.Col(int(cand[j]))[k : k+n]
		b := cb.Col(int(cand[min(j+1, last)]))[k : k+n]
		c := cb.Col(int(cand[min(j+2, last)]))[k : k+n]
		if j == 0 {
			for i := range t {
				t[i] = a[i] & b[i] & c[i]
			}
			continue
		}
		for i := range t {
			t[i] &= a[i] & b[i] & c[i]
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
func EvalBitsetWeighted(cb *matrix.ColumnBits, e, w []float64, ids []int32, L int, ss, se, sm []float64) {
	r := rowVals{e: e, w: w}
	matrix.ParallelFor(len(ids)/L, func(lo, hi int) {
		evalBitsetRange(cb, r, ids, L, lo, hi, ss, se, sm)
	})
}

// EvalBitsetSerial evaluates all candidates on the calling goroutine. It is
// the allocation-free level loop the bench regression gate pins at
// 0 allocs/op, and the kernel the parallel wrapper shards.
func EvalBitsetSerial(cb *matrix.ColumnBits, e, w []float64, ids []int32, L int, ss, se, sm []float64) {
	evalBitsetRange(cb, rowVals{e: e, w: w}, ids, L, 0, len(ids)/L, ss, se, sm)
}

// evalBitsetRange evaluates candidates [s0,s1), each as one evalBitsetFrom
// pass from row 0 seeded with its accumulators. Callers pass zeroed
// accumulators, so every candidate gets the addition sequence of a plain
// full pass. It performs no allocations.
func evalBitsetRange(cb *matrix.ColumnBits, r rowVals, ids []int32, L, s0, s1 int, ss, se, sm []float64) {
	for s := s0; s < s1; s++ {
		ss[s], se[s], sm[s] = evalBitsetFrom(cb, r, ids[s*L:(s+1)*L], 0, ss[s], se[s], sm[s])
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
func evalBitsetFrom(cb *matrix.ColumnBits, r rowVals, cand []int32, from int, seedSS, seedSE, seedSM float64) (float64, float64, float64) {
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
	a := cb.Col(int(cand[0]))
	var b, c []uint64
	if nc > 1 {
		b = cb.Col(int(cand[1]))
	}
	if nc > 2 {
		c = cb.Col(int(cand[2]))
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
					m &= cb.Col(int(cand[j]))[k]
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
func binaryCounts(cb *matrix.ColumnBits, eb []uint64, cand []int32, from int) (cs, ce int) {
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
	a := cb.Col(int(cand[0]))[k0:words]
	b := cb.Col(int(cand[min(1, last)]))[k0:words]
	c := cb.Col(int(cand[min(2, last)]))[k0:words]
	for k := range eb {
		m := a[k] & b[k] & c[k] & mask
		mask = ^uint64(0)
		cs += bits.OnesCount64(m)
		ce += bits.OnesCount64(m & eb[k])
	}
	return cs, ce
}
