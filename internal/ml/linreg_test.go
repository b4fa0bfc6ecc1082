package ml

import (
	"math"
	"math/rand"
	"testing"

	"sliceline/internal/matrix"
)

// onehotDesign builds a random one-hot CSR design matrix with the given
// feature domains, returning the matrix and the chosen codes.
func onehotDesign(rng *rand.Rand, n int, doms []int) (*matrix.CSR, [][]int) {
	l := 0
	begs := make([]int, len(doms))
	for j, d := range doms {
		begs[j] = l
		l += d
	}
	codes := make([][]int, n)
	var ts []matrix.Triple
	for i := 0; i < n; i++ {
		codes[i] = make([]int, len(doms))
		for j, d := range doms {
			c := rng.Intn(d)
			codes[i][j] = c
			ts = append(ts, matrix.Triple{Row: i, Col: begs[j] + c})
		}
	}
	return matrix.CSRFromTriples(n, l, ts), codes
}

func TestTrainLinRegRecoversAdditiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x, codes := onehotDesign(rng, 500, []int{3, 4})
	// y = effect(feature0 code) + effect(feature1 code), an exactly linear
	// target in the one-hot basis.
	eff0 := []float64{1, 5, -2}
	eff1 := []float64{0, 2, 4, 6}
	y := make([]float64, 500)
	for i := range y {
		y[i] = eff0[codes[i][0]] + eff1[codes[i][1]]
	}
	m, err := TrainLinReg(x, y, LinRegConfig{Lambda: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	yhat := m.Predict(x)
	for i := range y {
		if math.Abs(y[i]-yhat[i]) > 1e-3 {
			t.Fatalf("row %d: prediction %v, want %v", i, yhat[i], y[i])
		}
	}
}

func TestTrainLinRegEmptyInput(t *testing.T) {
	x := matrix.CSRFromTriples(0, 3, nil)
	if _, err := TrainLinReg(x, nil, LinRegConfig{}); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

func TestTrainLinRegDimensionMismatch(t *testing.T) {
	x := matrix.CSRFromTriples(2, 3, nil)
	if _, err := TrainLinReg(x, []float64{1}, LinRegConfig{}); err == nil {
		t.Fatal("expected error for label mismatch")
	}
}

func TestLinRegInterceptOnly(t *testing.T) {
	// With no informative features (all-zero design), prediction is the mean.
	x := matrix.CSRFromTriples(4, 2, nil)
	y := []float64{1, 2, 3, 4}
	m, err := TrainLinReg(x, y, LinRegConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Predict(x) {
		if math.Abs(p-2.5) > 1e-9 {
			t.Fatalf("prediction = %v, want mean 2.5", p)
		}
	}
}

func TestLinRegResidualsDriveSliceErrors(t *testing.T) {
	// A planted bad subgroup must surface as larger squared loss.
	rng := rand.New(rand.NewSource(7))
	x, codes := onehotDesign(rng, 400, []int{2, 5})
	y := make([]float64, 400)
	for i := range y {
		y[i] = 1
		if codes[i][0] == 0 && codes[i][1] == 3 {
			y[i] = 10 // subgroup the linear model cannot express jointly
		}
	}
	m, err := TrainLinReg(x, y, LinRegConfig{Lambda: 1.0, MaxIters: 100})
	if err != nil {
		t.Fatal(err)
	}
	e := SquaredLoss(y, m.Predict(x))
	var inErr, outErr float64
	var inN, outN int
	for i := range e {
		if codes[i][0] == 0 && codes[i][1] == 3 {
			inErr += e[i]
			inN++
		} else {
			outErr += e[i]
			outN++
		}
	}
	if inN == 0 {
		t.Skip("no subgroup rows sampled")
	}
	if inErr/float64(inN) <= outErr/float64(outN) {
		t.Fatalf("subgroup mean error %v not larger than rest %v", inErr/float64(inN), outErr/float64(outN))
	}
}
