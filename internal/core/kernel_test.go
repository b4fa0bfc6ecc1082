package core

import (
	"math"
	"math/rand"
	"testing"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// TestKernelModeSelection pins the density heuristic: a Kernel takes the
// bitset path exactly when the average column density reaches the 1/64
// break-even of bitsetProfitable.
func TestKernelModeSelection(t *testing.T) {
	// Dense one-hot block: every row has a 1 in each of 2 columns ->
	// density 1/2, far above 1/64.
	var dense []matrix.Triple
	for i := 0; i < 128; i++ {
		dense = append(dense, matrix.Triple{Row: i, Col: 0}, matrix.Triple{Row: i, Col: 1})
	}
	xDense := matrix.CSRFromTriples(128, 2, dense)
	// Ultra-sparse block: one stored entry in a 128x128 matrix ->
	// density 1/16384, far below 1/64.
	xSparse := matrix.CSRFromTriples(128, 128, []matrix.Triple{{Row: 0, Col: 0}})

	e := make([]float64, 128)
	for _, tc := range []struct {
		name        string
		x           *matrix.CSR
		wantBackend string
	}{
		{"dense", xDense, "bitset"},
		{"sparse", xSparse, "fused"},
	} {
		k := NewKernel(tc.x, e, nil)
		if k.Backend() != tc.wantBackend {
			t.Errorf("%s: Backend() = %q, want %q", tc.name, k.Backend(), tc.wantBackend)
		}
		if k.UsesBitset() != (tc.wantBackend == "bitset") {
			t.Errorf("%s: UsesBitset() = %v disagrees with Backend() %q", tc.name, k.UsesBitset(), k.Backend())
		}
	}
}

func TestBitsetProfitableDegenerate(t *testing.T) {
	if bitsetProfitable(matrix.CSRFromTriples(0, 4, nil)) {
		t.Error("zero-row matrix reported profitable")
	}
	if bitsetProfitable(matrix.CSRFromTriples(4, 0, nil)) {
		t.Error("zero-column matrix reported profitable")
	}
}

// TestBitsetKernelMatchesCSR: the packed-bitset kernel and the fused CSR
// kernel compute bit-identical slice statistics on identical inputs, for every
// block size and worker count — both add each candidate's matching rows in
// ascending row order, so the kernel choice is an execution plan only.
func TestBitsetKernelMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type input struct {
		x      *matrix.CSR
		cb     *matrix.ColumnBits
		e, w   []float64
		levels map[int][][]int
	}
	var inputs []input
	for trial := 0; trial < 4; trial++ {
		n := 100 + rng.Intn(400)
		ds, e := randomDataset(rng, n, 4+rng.Intn(3), 4)
		enc, err := frame.OneHot(ds)
		if err != nil {
			t.Fatal(err)
		}
		in := input{x: enc.X, cb: matrix.PackColumns(enc.X), e: e, levels: map[int][][]int{}}
		if trial%2 == 1 {
			in.w = make([]float64, n)
			for i := range in.w {
				in.w[i] = 0.5 + rng.Float64()*2
			}
		}
		for c1 := 0; c1 < enc.Width(); c1++ {
			in.levels[1] = append(in.levels[1], []int{c1})
			for c2 := c1 + 1; c2 < enc.Width(); c2++ {
				if enc.FeatureOf(c1) == enc.FeatureOf(c2) {
					continue
				}
				in.levels[2] = append(in.levels[2], []int{c1, c2})
				for c3 := c2 + 1; c3 < enc.Width(); c3++ {
					if enc.FeatureOf(c3) != enc.FeatureOf(c1) && enc.FeatureOf(c3) != enc.FeatureOf(c2) {
						in.levels[3] = append(in.levels[3], []int{c1, c2, c3})
					}
				}
			}
		}
		inputs = append(inputs, in)
	}
	old := matrix.MaxWorkers()
	defer matrix.SetMaxWorkers(old)
	for _, workers := range []int{1, 2, 4} {
		matrix.SetMaxWorkers(workers)
		for _, blockSize := range []int{0, 1, 3, 16, 1 << 30} {
			for trial, in := range inputs {
				// The CSR kernel requires a homogeneous candidate list (it
				// counts matched columns against the level), so compare one
				// level at a time.
				for level := 1; level <= 3; level++ {
					cols := in.levels[level]
					nc := len(cols)
					ssB, seB, smB := make([]float64, nc), make([]float64, nc), make([]float64, nc)
					ssC, seC, smC := make([]float64, nc), make([]float64, nc), make([]float64, nc)
					EvalBitsetWeighted(in.cb, in.e, in.w, cols, ssB, seB, smB)
					EvalPartitionWeighted(in.x, in.e, in.w, cols, level, blockSize, ssC, seC, smC)
					for j := 0; j < nc; j++ {
						if ssB[j] != ssC[j] || seB[j] != seC[j] || smB[j] != smC[j] {
							t.Fatalf("workers %d block %d trial %d (weighted %v) L%d cand %v: bitset (%v, %v, %v) vs csr (%v, %v, %v)",
								workers, blockSize, trial, in.w != nil, level, cols[j],
								ssB[j], seB[j], smB[j], ssC[j], seC[j], smC[j])
						}
					}
				}
			}
		}
	}
}

// TestKernelPacksOnce: the packed representation is built once, with the
// Kernel, and shared across Eval calls — repeated Bits() returns the same
// backing object.
func TestKernelPacksOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, e := randomDataset(rng, 200, 4, 3)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(enc.X, e, nil)
	if k.Bits() != k.Bits() {
		t.Fatal("Bits() repacked on second call")
	}
	if k.Rows() != 200 {
		t.Fatalf("Rows() = %d", k.Rows())
	}
}

// TestPackedKernelMatchesNewKernel: a Kernel over already-packed columns
// returns the bits of the Kernel NewKernel builds over the dense CSR they
// were packed from — row-ordered columns through the general bitset loop for
// either kind of errors, and the binary layout (NewKernel's own packing)
// through the binary loop for 0/1 errors, which is the path NewKernel takes.
func TestPackedKernelMatchesNewKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds, e := randomDataset(rng, 300, 4, 3)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	binaryE := make([]float64, len(e))
	for i := range e {
		binaryE[i] = float64(rng.Intn(2))
	}
	var cols [][]int
	for a := 0; a < enc.X.Cols(); a++ {
		for b := a + 1; b < enc.X.Cols(); b++ {
			cols = append(cols, []int{a, b})
		}
	}
	for _, errs := range [][]float64{e, binaryE} {
		want := NewKernel(enc.X, errs, nil)
		packed := []*Kernel{NewPackedKernel(matrix.PackColumns(enc.X), errs)}
		if want.Binary() {
			k, err := NewPackedBinaryKernel(want.Bits(), want.ErrRows())
			if err != nil {
				t.Fatal(err)
			}
			packed = append(packed, k)
		}
		for _, got := range packed {
			if !got.UsesBitset() || !want.UsesBitset() || got.Rows() != want.Rows() || got.Cols() != want.Cols() {
				t.Fatalf("packed kernel bitset %v on %d×%d, NewKernel bitset %v on %d×%d",
					got.UsesBitset(), got.Rows(), got.Cols(), want.UsesBitset(), want.Rows(), want.Cols())
			}
			n := len(cols)
			ss, se, sm := make([]float64, n), make([]float64, n), make([]float64, n)
			gss, gse, gsm := make([]float64, n), make([]float64, n), make([]float64, n)
			want.Eval(cols, 2, ss, se, sm)
			got.Eval(cols, 2, gss, gse, gsm)
			for s := range cols {
				if math.Float64bits(ss[s]) != math.Float64bits(gss[s]) || math.Float64bits(se[s]) != math.Float64bits(gse[s]) ||
					math.Float64bits(sm[s]) != math.Float64bits(gsm[s]) {
					t.Fatalf("candidate %v (binary %v): packed (%v, %v, %v), NewKernel (%v, %v, %v)", cols[s], got.Binary(), gss[s], gse[s], gsm[s], ss[s], se[s], sm[s])
				}
			}
		}
	}
	if !NewKernel(enc.X, binaryE, nil).Binary() || NewPackedKernel(matrix.PackColumns(enc.X), binaryE).Binary() {
		t.Fatal("only NewKernel and NewPackedBinaryKernel take the binary loop on 0/1 errors")
	}
	for _, bad := range []int{-1, enc.X.Rows() + 1} {
		if _, err := NewPackedBinaryKernel(matrix.PackColumns(enc.X), bad); err == nil {
			t.Errorf("NewPackedBinaryKernel accepted %d erring rows of %d", bad, enc.X.Rows())
		}
	}
}
