package matrix

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// naiveMul is the O(n³) reference implementation all kernels are checked
// against.
func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			s := 0.0
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	d := NewDense(r, c)
	for i := range d.Data() {
		d.Data()[i] = float64(rng.Intn(7)) - 3
	}
	return d
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		r, k, c := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		a, b := randomDense(rng, r, k), randomDense(rng, k, c)
		if got, want := MatMul(a, b), naiveMul(a, b); !got.EqualApprox(want, 1e-12) {
			t.Fatalf("trial %d: MatMul mismatch", trial)
		}
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulCSRTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		r, k, s := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		a := randomCSR(rng, r, k, 0.4)
		b := randomCSR(rng, s, k, 0.4)
		want := naiveMul(a.ToDense(), b.ToDense().T())
		if got := MulCSRT(a, b); !got.EqualApprox(want, 1e-12) {
			t.Fatalf("trial %d: MulCSRT mismatch", trial)
		}
	}
}

func TestMulCSRVecMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := randomCSR(rng, 7, 5, 0.5)
	v := []float64{1, -2, 3, 0, 0.5}
	got := MulCSRVec(m, v)
	want := MatVec(m.ToDense(), v)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("MulCSRVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	// (A·B)·C == A·(B·C) on small integer-valued matrices.
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(16))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a, b, c := randomDense(rng, n, n), randomDense(rng, n, n), randomDense(rng, n, n)
		return MatMul(MatMul(a, b), c).EqualApprox(MatMul(a, MatMul(b, c)), 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1023} {
		covered := make([]int32, n)
		ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

// TestParallelForPropagatesPanic panics in one chunk while the others wait
// for that panic to start. The caller's recover must receive the value and
// the panicking goroutine's stack, and only after every other chunk ran.
func TestParallelForPropagatesPanic(t *testing.T) {
	for _, workers := range []int{2, 7} {
		t.Run(fmt.Sprint(workers, " workers"), func(t *testing.T) {
			defer SetMaxWorkers(SetMaxWorkers(workers))
			const n = 100
			var covered [n]atomic.Int32
			var panicHi atomic.Int64 // end of the chunk that panics
			panicking := make(chan struct{})
			func() {
				defer func() {
					p, ok := recover().(*WorkerPanic)
					if !ok || p.Value != "chunk 0" || !strings.Contains(string(p.Stack), "panicInChunk") {
						t.Fatalf("recovered %#v, want a *WorkerPanic of \"chunk 0\" raised in panicInChunk", p)
					}
					for i := range covered {
						want := int32(1)
						if int64(i) < panicHi.Load() {
							want = 0 // the panicking chunk covers nothing
						}
						if c := covered[i].Load(); c != want {
							t.Fatalf("index %d covered %d times when ParallelFor panicked, want %d", i, c, want)
						}
					}
				}()
				ParallelFor(n, func(lo, hi int) {
					if lo == 0 {
						panicHi.Store(int64(hi))
						panicInChunk(panicking)
					}
					<-panicking
					for i := lo; i < hi; i++ {
						covered[i].Add(1)
					}
				})
				t.Fatal("ParallelFor returned normally after a chunk panicked")
			}()
		})
	}
}

func panicInChunk(panicking chan struct{}) {
	close(panicking)
	panic("chunk 0")
}

func TestSetMaxWorkers(t *testing.T) {
	old := SetMaxWorkers(1)
	defer SetMaxWorkers(old)
	if MaxWorkers() != 1 {
		t.Fatalf("MaxWorkers = %d, want 1", MaxWorkers())
	}
	// Kernels must still be correct single-threaded.
	rng := rand.New(rand.NewSource(17))
	a, b := randomDense(rng, 5, 4), randomDense(rng, 4, 6)
	if !MatMul(a, b).EqualApprox(naiveMul(a, b), 1e-12) {
		t.Fatal("single-threaded MatMul mismatch")
	}
	if SetMaxWorkers(0); MaxWorkers() != 1 {
		t.Fatal("SetMaxWorkers(0) should clamp to 1")
	}
}
