package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// TestWindowedEqualsSuffixRun: a weighted run with the first r rows
// down-weighted to zero must equal an unweighted run over only the surviving
// suffix — bit-identically, because zero-weight rows contribute exact +0.0
// terms to every sum and are excluded from the max. This is the correctness
// contract of windowed slice finding ("worst slices over the last N rows").
func TestWindowedEqualsSuffixRun(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := 60 + rng.Intn(60)
		ds, e := randomDataset(rng, n, 3, 4)
		retire := 1 + rng.Intn(n-20) // keep at least 20 live rows
		w := make([]float64, n)
		for i := retire; i < n; i++ {
			w[i] = 1
		}
		// Suffix dataset: same features (and so the same one-hot layout),
		// only the surviving rows.
		live := n - retire
		suffix := &frame.Dataset{
			Name:     ds.Name,
			X0:       &frame.IntMatrix{Rows: live, Cols: ds.X0.Cols, Data: ds.X0.Data[retire*ds.X0.Cols:]},
			Features: ds.Features,
		}
		cfg := Config{K: 5, Sigma: 4, Alpha: 0.9}
		windowed, err := runDS(ds, e, w, cfg)
		if err != nil {
			t.Fatalf("trial %d: windowed: %v", trial, err)
		}
		want, err := runDS(suffix, e[retire:], nil, cfg)
		if err != nil {
			t.Fatalf("trial %d: suffix: %v", trial, err)
		}
		if !reflect.DeepEqual(windowed.TopK, want.TopK) {
			t.Fatalf("trial %d (retire %d/%d): windowed top-K differs from suffix run:\nwindowed: %+v\nsuffix:   %+v",
				trial, retire, n, windowed.TopK, want.TopK)
		}
		if windowed.N != want.N {
			t.Fatalf("trial %d: weighted N=%d vs suffix N=%d", trial, windowed.N, want.N)
		}
	}
}

// TestZeroWeightExcludedFromMaxError pins the sm contract across all three
// kernels: a retired row carrying the dataset's largest error must not leak
// into any slice's max tuple error.
func TestZeroWeightExcludedFromMaxError(t *testing.T) {
	// 4 rows, 2 one-hot columns; row 0 is in both slices, has a huge error,
	// and is retired (w=0).
	x := matrix.CSRFromTriples(4, 2, []matrix.Triple{
		{Row: 0, Col: 0}, {Row: 0, Col: 1},
		{Row: 1, Col: 0},
		{Row: 2, Col: 0}, {Row: 2, Col: 1},
		{Row: 3, Col: 1},
	})
	e := []float64{100, 0.5, 0.25, 0.125}
	w := []float64{0, 1, 1, 1}
	cols := [][]int{{0}, {1}, {0, 1}}
	check := func(name string, ss, se, sm []float64) {
		t.Helper()
		wantSS := []float64{2, 2, 1}
		wantSE := []float64{0.75, 0.375, 0.25}
		wantSM := []float64{0.5, 0.25, 0.25}
		if !reflect.DeepEqual(ss, wantSS) || !reflect.DeepEqual(se, wantSE) || !reflect.DeepEqual(sm, wantSM) {
			t.Errorf("%s: ss=%v se=%v sm=%v, want ss=%v se=%v sm=%v", name, ss, se, sm, wantSS, wantSE, wantSM)
		}
	}
	ss := make([]float64, 3)
	se := make([]float64, 3)
	sm := make([]float64, 3)
	// EvalPartitionWeighted takes one level for all candidates; evaluate the
	// singles and the pair in separate calls.
	EvalPartitionWeighted(x, e, w, ids32(cols[:2]...), 1, 1, ss[:2], se[:2], sm[:2])
	EvalPartitionWeighted(x, e, w, ids32(cols[2:]...), 2, 1, ss[2:], se[2:], sm[2:])
	check("fused", ss, se, sm)

	for i := range ss {
		ss[i], se[i], sm[i] = 0, 0, 0
	}
	cb := matrix.PackColumns(x)
	EvalBitsetWeighted(cb, e, w, ids32(cols[:2]...), 1, ss[:2], se[:2], sm[:2])
	EvalBitsetWeighted(cb, e, w, ids32(cols[2:]...), 2, ss[2:], se[2:], sm[2:])
	check("bitset", ss, se, sm)

	for i := range ss {
		ss[i], se[i], sm[i] = 0, 0, 0
	}
	for i, c := range cols {
		ss[i], se[i], sm[i] = evalBitsetFrom(cb, rowVals{e: e, w: w}, ids32(c), 0, 0, 0, 0)
	}
	check("bitsetFrom", ss, se, sm)
}

// TestWeightValidation pins the relaxed weight contract: zeros are legal,
// negatives and NaN are not, and an all-zero vector still fails.
func TestWeightValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds, e := randomDataset(rng, 50, 3, 3)
	w := make([]float64, len(e))
	for i := range w {
		w[i] = 1
	}
	w[0] = 0
	if _, err := runDS(ds, e, w, Config{Sigma: 4}); err != nil {
		t.Fatalf("zero weight among positives must be legal: %v", err)
	}
	w[1] = -1
	if _, err := runDS(ds, e, w, Config{Sigma: 4}); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("negative weight: got %v, want ErrBadWeight", err)
	}
	w[1] = math.NaN()
	if _, err := runDS(ds, e, w, Config{Sigma: 4}); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("NaN weight: got %v, want ErrBadWeight", err)
	}
	for i := range w {
		w[i] = 0
	}
	if _, err := runDS(ds, e, w, Config{Sigma: 4}); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("all-zero weights: got %v, want ErrBadWeight", err)
	}
}
