package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// rowPassBasic is the level-1 row pass core.run made before level 1 went
// through the Kernel, kept as the oracle: one pass over the rows of X, row i
// adding w[i] to ss0 and w[i]·e[i] to se0 of each of its columns (w[i] = 1
// when unweighted) and raising sm0 to e[i], zero-weight rows skipped.
func rowPassBasic(x *matrix.CSR, e, w []float64) (ss0, se0, sm0 []float64) {
	ss0 = make([]float64, x.Cols())
	se0 = make([]float64, x.Cols())
	sm0 = make([]float64, x.Cols())
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
			ss0[c] += wi
			se0[c] += wei
			if ei > sm0[c] {
				sm0[c] = ei
			}
		}
	}
	return ss0, se0, sm0
}

// levelOneCase is one input of TestLevelOneMatchesRowPass with the paths its
// Kernel takes: fullBackend at the full width (level 1), backend and binary
// after narrowing to the kept columns (levels >= 2).
type levelOneCase struct {
	name        string
	ds          *frame.Dataset
	e, w        []float64
	sigma       int
	noSize      bool // DisableSizePruning
	fullBackend string
	backend     string
	binary      bool
	// The kept columns' set bits in the binary layout alone would choose
	// the CSR path: the rows of weight 0 it leaves out decide.
	leftOutDecide bool
}

// wideDataset returns n rows of one feature with `wide` values, each on
// about n/wide rows, beside `dense` features of domain 3: a sparse full
// width whose kept columns, once σ drops the wide feature, are dense.
func wideDataset(rng *rand.Rand, n, wide, dense int) *frame.Dataset {
	ds := &frame.Dataset{Name: "wide", X0: frame.NewIntMatrix(n, dense+1), Features: []frame.Feature{{Name: "wide", Domain: wide}}}
	for j := 1; j <= dense; j++ {
		ds.Features = append(ds.Features, frame.Feature{Name: featureName(j), Domain: 3})
	}
	for i := 0; i < n; i++ {
		ds.X0.Set(i, 0, 1+rng.Intn(wide))
		for j := 1; j <= dense; j++ {
			ds.X0.Set(i, j, 1+rng.Intn(3))
		}
	}
	return ds
}

// droppedDenseDataset returns a dense full width whose kept columns are
// sparse: a feature of 100 values on 20 rows each, one erring row per value,
// and six features of domain 2 that hold value 1 exactly on the erring rows,
// so their value-2 columns carry no error and σ's filter drops them.
func droppedDenseDataset() (*frame.Dataset, []float64) {
	const n, wide, flags = 2000, 100, 6
	ds := &frame.Dataset{Name: "dropped-dense", X0: frame.NewIntMatrix(n, flags+1), Features: []frame.Feature{{Name: "wide", Domain: wide}}}
	for j := 1; j <= flags; j++ {
		ds.Features = append(ds.Features, frame.Feature{Name: featureName(j), Domain: 2})
	}
	e := make([]float64, n)
	for i := 0; i < n; i++ {
		ds.X0.Set(i, 0, 1+i%wide)
		flag := 2
		if i < wide {
			e[i], flag = 1, 1
		}
		for j := 1; j <= flags; j++ {
			ds.X0.Set(i, j, flag)
		}
	}
	return ds, e
}

func levelOneCases() []levelOneCase {
	rng := rand.New(rand.NewSource(61))
	ds, cont := randomDataset(rng, 700, 5, 4)
	bin := binaryErrors(cont)
	window := make([]float64, len(cont))
	frac := make([]float64, len(cont))
	zeroCol := make([]float64, len(cont))
	for i := range cont {
		if i >= 200 {
			window[i] = 1
		}
		if i%5 != 0 {
			frac[i] = 0.25 + rng.Float64()*2 // every fifth row weighs 0
		}
		// Every row holding value 1 of the first feature weighs 0.
		if ds.X0.At(i, 0) != 1 {
			zeroCol[i] = 0.5 + rng.Float64()
		}
	}
	wide := wideDataset(rng, 3000, 1500, 3)
	wideCont := make([]float64, wide.NumRows())
	wideBin := make([]float64, wide.NumRows())
	for i := range wideCont {
		wideCont[i] = rng.Float64()
		if rng.Float64() < 0.3 {
			wideBin[i] = 1
		}
	}
	dropped, droppedE := droppedDenseDataset()
	// 2/51 of the entries are set; with seven rows in ten weighing 0 the
	// binary layout holds fewer than 1/64 of them.
	near := wideDataset(rng, 4000, 48, 1)
	nearBin := make([]float64, near.NumRows())
	nearWindow := make([]float64, near.NumRows())
	for i := range nearBin {
		if rng.Float64() < 0.3 {
			nearBin[i] = 1
		}
		if i >= 2800 {
			nearWindow[i] = 1
		}
	}
	return []levelOneCase{
		{name: "0/1 errors", ds: ds, e: bin, sigma: 8, fullBackend: "bitset", backend: "bitset", binary: true},
		{name: "0/1 errors, 0/1 window weights", ds: ds, e: bin, w: window, sigma: 8, fullBackend: "bitset", backend: "bitset", binary: true},
		{name: "continuous errors", ds: ds, e: cont, sigma: 8, fullBackend: "bitset", backend: "bitset"},
		{name: "continuous errors, fractional and zero weights", ds: ds, e: cont, w: frac, sigma: 8, fullBackend: "bitset", backend: "bitset"},
		{name: "all-zero errors", ds: ds, e: make([]float64, len(cont)), sigma: 8, fullBackend: "bitset", backend: "fused"},
		{name: "a column whose rows all weigh 0", ds: ds, e: cont, w: zeroCol, sigma: 8, fullBackend: "bitset", backend: "bitset"},
		{name: "sparse full width, dense kept columns, 0/1 errors", ds: wide, e: wideBin, sigma: 10, fullBackend: "fused", backend: "bitset", binary: true},
		{name: "sparse full width, dense kept columns, continuous errors", ds: wide, e: wideCont, sigma: 10, fullBackend: "fused", backend: "bitset"},
		{name: "sparse full width, DisableSizePruning", ds: wide, e: wideBin, sigma: 10, noSize: true, fullBackend: "fused", backend: "fused"},
		{name: "dense full width, sparse kept columns", ds: dropped, e: droppedE, sigma: 5, fullBackend: "bitset", backend: "fused"},
		{name: "0/1 errors, window weights, density near 1/64", ds: near, e: nearBin, w: nearWindow, sigma: 10, fullBackend: "bitset", backend: "bitset", binary: true, leftOutDecide: true},
	}
}

// TestLevelOneMatchesRowPass: the basic slices evaluated through a Kernel
// over the full one-hot width — the binary layout's popcounts or the row
// pass — and, on 0/1 errors, through popcounts of the incremental memo's
// row-ordered bits equal the row pass they replaced bit for bit. The Kernel
// narrowed to the kept columns then takes the pinned path, the one a Kernel
// built over X[, cI] takes, and evaluates level 2 to that Kernel's bits; a
// run to level 1 reports the oracle's statistics for its top-K.
func TestLevelOneMatchesRowPass(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, tc := range levelOneCases() {
		enc, err := frame.OneHot(tc.ds)
		if err != nil {
			t.Fatal(err)
		}
		wantSS, wantSE, wantSM := rowPassBasic(enc.X, tc.e, tc.w)
		l := enc.Width()
		k := NewKernel(enc.X, tc.e, tc.w)
		if k.Backend() != tc.fullBackend {
			t.Fatalf("%s: full-width backend %q, want %q", tc.name, k.Backend(), tc.fullBackend)
		}
		type path struct {
			name       string
			ss, se, sm []float64
		}
		paths := []path{{name: "kernel", ss: make([]float64, l), se: make([]float64, l), sm: make([]float64, l)}}
		k.evalBasic(paths[0].ss, paths[0].se, paths[0].sm)
		if tc.w == nil && binaryValues(tc.e) {
			p := path{name: "memo", ss: make([]float64, l), se: make([]float64, l), sm: make([]float64, l)}
			evalBasicBits(matrix.PackColumns(enc.X), packBinary(tc.e), p.ss, p.se, p.sm)
			paths = append(paths, p)
		}
		for _, p := range paths {
			for c := 0; c < l; c++ {
				if !same(p.ss[c], wantSS[c]) || !same(p.se[c], wantSE[c]) || !same(p.sm[c], wantSM[c]) {
					t.Fatalf("%s, %s: column %d (%v, %v, %v), row pass (%v, %v, %v)",
						tc.name, p.name, c, p.ss[c], p.se[c], p.sm[c], wantSS[c], wantSE[c], wantSM[c])
				}
			}
		}

		minSS := float64(tc.sigma)
		if tc.noSize {
			minSS = 1
		}
		var cI []int
		for c := 0; c < l; c++ {
			if wantSS[c] >= minSS && wantSE[c] > 0 {
				cI = append(cI, c)
			}
		}
		// The rule: X[, cI] decides the path of levels >= 2. On the bitset
		// path narrow counts its entries from the moved words and the
		// rows the binary layout left out.
		reduced := enc.X.SelectCols(cI)
		if (tc.backend == "bitset") != bitsetProfitable(reduced) {
			t.Fatalf("%s: pinned backend %s, but X[, cI] is dense %v", tc.name, tc.backend, bitsetProfitable(reduced))
		}
		if nnz := k.narrow(cI); nnz != reduced.NNZ() {
			t.Fatalf("%s: narrow counted %d entries, X[, cI] holds %d", tc.name, nnz, reduced.NNZ())
		}
		if k.Backend() != tc.backend || k.Binary() != tc.binary || k.Cols() != len(cI) || k.Rows() != enc.X.Rows() {
			t.Fatalf("%s: narrowed to %s (binary %v) over %d×%d, want %s (binary %v) over %d×%d",
				tc.name, k.Backend(), k.Binary(), k.Rows(), k.Cols(), tc.backend, tc.binary, enc.X.Rows(), len(cI))
		}
		if tc.leftOutDecide {
			setBits := 0
			for c := range cI {
				setBits += onesCount(k.Bits().Col(c))
			}
			if denseEnough(setBits, enc.X.Rows(), len(cI)) {
				t.Fatalf("%s: the layout's %d set bits alone are dense enough; the left-out rows decide nothing", tc.name, setBits)
			}
		}
		var pairs [][]int
		for a := range cI {
			for b := a + 1; b < len(cI); b++ {
				if enc.FeatureOf(cI[a]) != enc.FeatureOf(cI[b]) {
					pairs = append(pairs, []int{a, b})
				}
			}
		}
		n := len(pairs)
		ss, se, sm := make([]float64, n), make([]float64, n), make([]float64, n)
		rss, rse, rsm := make([]float64, n), make([]float64, n), make([]float64, n)
		k.Eval(ids32(pairs...), 2, ss, se, sm)
		NewKernel(reduced, tc.e, tc.w).Eval(ids32(pairs...), 2, rss, rse, rsm)
		for s := range pairs {
			if !same(ss[s], rss[s]) || !same(se[s], rse[s]) || !same(sm[s], rsm[s]) {
				t.Fatalf("%s: level-2 candidate %v: narrowed (%v, %v, %v), built over X[, cI] (%v, %v, %v)",
					tc.name, pairs[s], ss[s], se[s], sm[s], rss[s], rse[s], rsm[s])
			}
		}

		// α = 1 scores a slice by its error rate alone, so every column
		// above the average error enters the top-K.
		cfg := Config{K: l, Sigma: tc.sigma, Alpha: 1, MaxLevel: 1, DisableSizePruning: tc.noSize}
		res, err := Run(context.Background(), enc, tc.ds.Features, tc.e, tc.w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(cI) > 0 && len(res.TopK) == 0 {
			t.Fatalf("%s: a run to level 1 returned no slice to check", tc.name)
		}
		for _, sl := range res.TopK {
			c := enc.Beg[sl.Predicates[0].Feature] + sl.Predicates[0].Value - 1
			if sl.Size != int(wantSS[c]) || !same(sl.TotalError, wantSE[c]) || !same(sl.MaxError, wantSM[c]) {
				t.Fatalf("%s: run reports column %d as (%d, %v, %v), row pass (%v, %v, %v)",
					tc.name, c, sl.Size, sl.TotalError, sl.MaxError, wantSS[c], wantSE[c], wantSM[c])
			}
		}
	}
}
