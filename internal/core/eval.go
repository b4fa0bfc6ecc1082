package core

import (
	"context"
	"fmt"
	"time"

	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// ExternalEvaluator evaluates slice candidates against the (reduced) one-hot
// dataset on behalf of the enumeration loop. Implementations may distribute
// the evaluation (package dist ships row-partitioned local and TCP-based
// backends). Setup is called once per run with the reduced matrix and error
// vector before any Eval call.
//
// The context carries the run's deadline and cancellation: implementations
// that perform network calls must abort promptly when it is done, so a
// cancelled run does not leave RPCs in flight.
type ExternalEvaluator interface {
	Setup(ctx context.Context, x *matrix.CSR, e []float64) error
	// Eval returns, per candidate, the slice size, total error and maximum
	// tuple error. ids is the level's arena: len(ids)/level candidates of
	// level strictly ascending reduced one-hot columns each, candidate s at
	// ids[s·level, (s+1)·level). Implementations must not modify it.
	Eval(ctx context.Context, ids []int32, level int) (ss, se, sm []float64, err error)
}

// evalSlices evaluates all level-L candidates against the reduced one-hot
// matrix, the vectorized evaluation of Section 4.4 / Equation 10:
//
//	I  = ((X Sᵀ) = L)
//	ss = colSums(I)   se = (eᵀ I)ᵀ   sm = colMaxs(I · e)
//
// The built-in Kernel never materializes the n × nrow(S) indicator I. It
// picks its kernel once, by the reduced columns' density: dense columns take
// the packed-bitset kernel, which ANDs each candidate's column words (and on
// 0/1 errors counts them with its exact popcount loop); sparse ones the
// fused CSR kernel, which groups slices into blocks, scans X once per block
// and counts predicate matches through a per-block inverted column index
// (EvalPartitionWeighted). An external evaluator or the incremental memo may
// take the level instead. Row-partitioned data parallelism is the
// distributed backends' job (package dist); every plan returns the same
// bits.
func (st *state) evalSlices(ctx context.Context, lv *level, L int) error {
	nSlices := lv.size()
	if nSlices == 0 {
		return nil
	}
	// The eval span parents under whatever span the context carries (the
	// level span during enumeration). Nil in, nil out: with tracing off this
	// whole block is a handful of nil checks and never allocates.
	sp := obs.FromContext(ctx).Child("core.eval")
	sp.SetInt("level", int64(L))
	sp.SetInt("candidates", int64(nSlices))
	evalStart := time.Now()
	switch {
	case st.eval != nil:
		sp.SetStr("backend", "external")
		ss, se, sm, err := st.eval.Eval(obs.ContextWith(ctx, sp), lv.cols, L)
		if err != nil {
			sp.End()
			return err
		}
		if len(ss) != nSlices || len(se) != nSlices || len(sm) != nSlices {
			sp.End()
			return fmt.Errorf("core: evaluator returned %d/%d/%d statistics for %d candidates",
				len(ss), len(se), len(sm), nSlices)
		}
		copy(lv.ss, ss)
		copy(lv.se, se)
		copy(lv.sm, sm)
	case st.memo != nil:
		// Incremental path: statistics memoized across generations by
		// original one-hot column ids; only rows appended since a
		// candidate's last evaluation are scanned.
		sp.SetStr("backend", "memo")
		sp.SetBool("binary", st.memo.eb != nil)
		st.memo.evalLevel(st.origCols, st.e, lv)
	default:
		// Kernel selection by density: packed-bitset AND+popcount when the
		// reduced columns are dense enough, the fused CSR kernel otherwise;
		// 0/1 errors and weights take the bitset kernel's binary layout. The
		// packing happened once, at init.
		sp.SetStr("backend", st.kernel.Backend())
		sp.SetBool("binary", st.kernel.Binary())
		st.kernel.Eval(lv.cols, L, lv.ss, lv.se, lv.sm)
	}
	st.ob.evalSecs.Observe(time.Since(evalStart).Seconds())
	sp.End()
	for i := 0; i < nSlices; i++ {
		lv.sc[i] = st.sc.score(lv.ss[i], lv.se[i])
	}
	return nil
}

// EvalPartitionWeighted is the fused CSR kernel: it evaluates the level-L
// candidates of the arena ids (candidate s at ids[s·L, (s+1)·L)) against one
// row partition of the one-hot matrix, accumulating into ss/se/sm (callers
// pass zeroed slices of length len(ids)/L). Row i contributes w[i] to
// slice sizes and w[i]·e[i] to slice errors (nil w means unit weights). The
// maximum tuple error sm ignores the magnitude of positive weights but
// excludes zero-weight (retired) rows entirely. blockSize <= 0 selects the
// automatic size. It is the kernel shared by the local evaluator and the
// distributed workers.
//
// Candidates are grouped into blocks that run in parallel, and each block
// scans its rows serially in ascending order — the accumulation order of
// EvalBitsetWeighted — so the statistics are bit-identical for every block
// size, worker count and kernel choice.
func EvalPartitionWeighted(x *matrix.CSR, e, w []float64, ids []int32, L, blockSize int, ss, se, sm []float64) {
	nSlices := len(ids) / L
	if nSlices == 0 {
		return
	}
	b := blockSize
	if b <= 0 {
		// Auto: one scan of X per block is the dominant cost, so prefer few
		// large blocks while leaving enough blocks to keep all workers busy,
		// and never fewer blocks than workers.
		workers := matrix.MaxWorkers()
		b = max((nSlices+4*workers-1)/(4*workers), DefaultBlockSize)
		b = min(b, (nSlices+workers-1)/workers)
	}
	b = min(b, nSlices)
	nBlocks := (nSlices + b - 1) / b
	matrix.ParallelFor(nBlocks, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			s0 := blk * b
			s1 := s0 + b
			if s1 > nSlices {
				s1 = nSlices
			}
			evalBlockSerial(x, e, w, ids, L, s0, s1, ss, se, sm)
		}
	})
}

// blockIndex is the inverted index of one evaluation block: for each reduced
// column, the block-local ids of slices whose definition contains it.
type blockIndex struct {
	postings [][]int32
	touched  []int32
	counts   []int32
}

func buildBlockIndex(nCols int, ids []int32, L, s0, s1 int) *blockIndex {
	bi := &blockIndex{
		postings: make([][]int32, nCols),
		counts:   make([]int32, s1-s0),
	}
	for k, c := range ids[s0*L : s1*L] {
		bi.postings[c] = append(bi.postings[c], int32(k/L))
	}
	return bi
}

// scanRow streams one row of X through the index, incrementing per-slice
// match counters and recording which slices were touched.
func (bi *blockIndex) scanRow(cols []int) {
	for _, c := range cols {
		for _, s := range bi.postings[c] {
			if bi.counts[s] == 0 {
				bi.touched = append(bi.touched, s)
			}
			bi.counts[s]++
		}
	}
}

// evalBlockSerial scans the full partition once for slices [s0,s1), serially.
func evalBlockSerial(x *matrix.CSR, e, w []float64, ids []int32, L, s0, s1 int, ss, se, sm []float64) {
	bi := buildBlockIndex(x.Cols(), ids, L, s0, s1)
	n := x.Rows()
	want := int32(L)
	for i := 0; i < n; i++ {
		bi.scanRow(x.RowEntries(i))
		ei := e[i]
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		for _, s := range bi.touched {
			if bi.counts[s] == want {
				g := int(s) + s0
				ss[g] += wi
				se[g] += wi * ei
				if wi > 0 && ei > sm[g] {
					sm[g] = ei
				}
			}
			bi.counts[s] = 0
		}
		bi.touched = bi.touched[:0]
	}
}
