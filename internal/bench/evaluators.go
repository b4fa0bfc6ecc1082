package bench

import (
	"context"
	"errors"

	"sliceline/internal/core"
	"sliceline/internal/matrix"
)

// This file holds the evaluators that exist only to reproduce the paper's
// plan comparisons. All plug into core.Config.Evaluator; none is a
// production path.

var errEvalBeforeSetup = errors.New("bench: Eval before Setup")

// DenseIntermediates evaluates candidates by materializing the X·Sᵀ product
// and the 0/1 indicator I densely in column chunks, mimicking ML systems with
// limited sparsity exploitation across operations (the kernel-quality
// comparison of Section 5.4). It is unweighted, like every external
// evaluator.
type DenseIntermediates struct {
	x *matrix.CSR
	e []float64
}

// Setup implements core.ExternalEvaluator.
func (d *DenseIntermediates) Setup(_ context.Context, x *matrix.CSR, e []float64) error {
	d.x, d.e = x, e
	return nil
}

// Eval implements core.ExternalEvaluator.
func (d *DenseIntermediates) Eval(_ context.Context, cols [][]int, level int) (ss, se, sm []float64, err error) {
	if d.x == nil {
		return nil, nil, nil, errEvalBeforeSetup
	}
	const chunk = 512
	n := len(cols)
	ss, se, sm = make([]float64, n), make([]float64, n), make([]float64, n)
	for s0 := 0; s0 < n; s0 += chunk {
		s1 := min(s0+chunk, n)
		// Materialize S for the chunk as CSR, then XSᵀ densely.
		var ts []matrix.Triple
		for s := s0; s < s1; s++ {
			for _, c := range cols[s] {
				ts = append(ts, matrix.Triple{Row: s - s0, Col: c})
			}
		}
		sMat := matrix.CSRFromTriples(s1-s0, d.x.Cols(), ts)
		ind := matrix.EqScalar(matrix.MulCSRT(d.x, sMat), float64(level)) // I = ((X Sᵀ) = L)
		copy(ss[s0:s1], matrix.ColSums(ind))                              // ss = colSums(I)
		copy(se[s0:s1], matrix.MatVec(ind.T(), d.e))                      // se = (eᵀ I)ᵀ
		copy(sm[s0:s1], matrix.ColMaxs(matrix.ScaleRows(ind, d.e)))       // sm = colMaxs(I · e)
	}
	return ss, se, sm, nil
}

// CSREvaluator is the hybrid plan of Section 4.4: the fused CSR kernel
// (core.EvalPartitionWeighted) with candidates grouped into blocks of
// BlockSize, each block sharing one scan of X. b = 1 is the task-parallel
// plan and b = nrow(S) one shared scan; BlockSize <= 0 selects the kernel's
// automatic size. The built-in evaluation takes this kernel only on sparse
// data, and always at the automatic size, so the Figure 6(b) sweep drives it
// here. Every b returns the same bits. It is unweighted, like every external
// evaluator.
type CSREvaluator struct {
	BlockSize int
	x         *matrix.CSR
	e         []float64
}

// Setup implements core.ExternalEvaluator.
func (c *CSREvaluator) Setup(_ context.Context, x *matrix.CSR, e []float64) error {
	c.x, c.e = x, e
	return nil
}

// Eval implements core.ExternalEvaluator.
func (c *CSREvaluator) Eval(_ context.Context, cols [][]int, level int) (ss, se, sm []float64, err error) {
	if c.x == nil {
		return nil, nil, nil, errEvalBeforeSetup
	}
	n := len(cols)
	ss, se, sm = make([]float64, n), make([]float64, n), make([]float64, n)
	core.EvalPartitionWeighted(c.x, c.e, nil, cols, level, c.BlockSize, ss, se, sm)
	return ss, se, sm, nil
}

// BarrierEvaluator is the MT-Ops plan of Figure 7(b): multi-threaded
// operations with a synchronization barrier after every block of BlockSize
// candidates, so blocks run strictly one after another, each internally
// parallel. (MT-PFor, the parallel-for over blocks without barriers, is
// core's built-in evaluation.) BlockSize <= 0 selects core.DefaultBlockSize.
type BarrierEvaluator struct {
	BlockSize int
	kernel    *core.Kernel
}

// Setup implements core.ExternalEvaluator.
func (b *BarrierEvaluator) Setup(_ context.Context, x *matrix.CSR, e []float64) error {
	b.kernel = core.NewKernel(x, e, nil)
	return nil
}

// Eval implements core.ExternalEvaluator.
func (b *BarrierEvaluator) Eval(_ context.Context, cols [][]int, level int) (ss, se, sm []float64, err error) {
	if b.kernel == nil {
		return nil, nil, nil, errEvalBeforeSetup
	}
	n := len(cols)
	ss, se, sm = make([]float64, n), make([]float64, n), make([]float64, n)
	size := b.BlockSize
	if size <= 0 {
		size = core.DefaultBlockSize
	}
	for s0 := 0; s0 < n; s0 += size {
		s1 := min(s0+size, n)
		// The kernel spreads this one operation over all workers; the loop
		// itself is the barrier.
		b.kernel.Eval(cols[s0:s1], level, ss[s0:s1], se[s0:s1], sm[s0:s1])
	}
	return ss, se, sm, nil
}

var (
	_ core.ExternalEvaluator = (*DenseIntermediates)(nil)
	_ core.ExternalEvaluator = (*CSREvaluator)(nil)
	_ core.ExternalEvaluator = (*BarrierEvaluator)(nil)
)
