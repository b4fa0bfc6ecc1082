package matrix

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the goroutines used by parallel kernels. It defaults to
// GOMAXPROCS and can be lowered to model the paper's parallelism sweeps.
var maxWorkers int64 = int64(runtime.GOMAXPROCS(0))

// SetMaxWorkers bounds the parallel kernels to n goroutines (n >= 1). It
// returns the previous setting so callers can restore it.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(atomic.SwapInt64(&maxWorkers, int64(n)))
}

// MaxWorkers reports the current parallelism bound.
func MaxWorkers() int { return int(atomic.LoadInt64(&maxWorkers)) }

// ParallelFor splits [0,n) into contiguous chunks and runs fn(lo,hi) on up
// to MaxWorkers goroutines. fn must be safe for concurrent invocation on
// disjoint ranges. It is exported so higher layers (slice evaluation, the
// simulated cluster) share one parallelism policy.
//
// A panic in fn on a worker goroutine does not end the process: the other
// chunks run to completion, and then ParallelFor panics on its caller with
// a *WorkerPanic that holds the first value recovered and the stack of the
// goroutine that raised it. A single chunk runs on the caller, so its panic
// propagates as it is.
func ParallelFor(n int, fn func(lo, hi int)) {
	w := MaxWorkers()
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	// The wait group and the panic slot share one heap object, so catching
	// panics costs a run that does not panic no allocation.
	r := new(parallelRun)
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		r.wg.Add(1)
		go r.run(fn, lo, hi)
	}
	r.wg.Wait()
	if r.panicked.Load() {
		panic(&r.first)
	}
}

// WorkerPanic is the value ParallelFor panics with when fn panicked on one
// of its worker goroutines: the value that goroutine panicked with, and its
// stack, which the caller's own stack trace does not show.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// parallelRun is the state one ParallelFor call shares with its goroutines.
// first is written once, by the goroutine that sets panicked, and read after
// the wait group has seen every goroutine finish.
type parallelRun struct {
	wg       sync.WaitGroup
	panicked atomic.Bool
	first    WorkerPanic
}

func (r *parallelRun) run(fn func(lo, hi int), lo, hi int) {
	defer r.wg.Done()
	defer func() {
		if v := recover(); v != nil && r.panicked.CompareAndSwap(false, true) {
			r.first = WorkerPanic{Value: v, Stack: debug.Stack()}
		}
	}()
	fn(lo, hi)
}

// MatMul computes the dense product a·b.
func MatMul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: MatMul inner dimension mismatch %d vs %d", a.cols, b.rows))
	}
	out := NewDense(a.rows, b.cols)
	ParallelFor(a.rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.Row(i)
			oi := out.Row(i)
			for k, av := range ai {
				if av == 0 {
					continue
				}
				bk := b.Row(k)
				for j, bv := range bk {
					oi[j] += av * bv
				}
			}
		}
	})
	return out
}

// MulCSRT computes a·bᵀ for two CSR operands sharing their column dimension,
// producing a dense a.Rows×b.Rows result. This is the kernel behind both the
// pair-join S⊙Sᵀ (Eq. 6) and the slice evaluation X⊙Sᵀ (Eq. 10); the output
// row count is the number of left rows, so callers keep the smaller operand
// on the right or use the fused streaming kernels in package core when the
// output would be too large.
func MulCSRT(a, b *CSR) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("matrix: MulCSRT column dimension mismatch %d vs %d", a.cols, b.cols))
	}
	bt := b.T() // column c → rows of b containing c
	out := NewDense(a.rows, b.rows)
	ParallelFor(a.rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			oi := out.Row(i)
			for _, c := range a.RowEntries(i) {
				for _, r := range bt.RowEntries(c) {
					oi[r]++
				}
			}
		}
	})
	return out
}

// MulCSRVec computes m·v, returning a slice of length m.Rows.
func MulCSRVec(m *CSR, v []float64) []float64 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("matrix: MulCSRVec vector length %d vs %d cols", len(v), m.cols))
	}
	out := make([]float64, m.rows)
	ParallelFor(m.rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for _, j := range m.RowEntries(i) {
				s += v[j]
			}
			out[i] = s
		}
	})
	return out
}

// MatVec computes a·v for a dense matrix.
func MatVec(a *Dense, v []float64) []float64 {
	if len(v) != a.cols {
		panic(fmt.Sprintf("matrix: MatVec vector length %d vs %d cols", len(v), a.cols))
	}
	out := make([]float64, a.rows)
	ParallelFor(a.rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for j, x := range a.Row(i) {
				s += x * v[j]
			}
			out[i] = s
		}
	})
	return out
}
