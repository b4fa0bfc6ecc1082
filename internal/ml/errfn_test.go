package ml

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestSquaredLoss(t *testing.T) {
	got := SquaredLoss([]float64{1, 2, 3}, []float64{1, 4, 0})
	if !reflect.DeepEqual(got, []float64{0, 4, 9}) {
		t.Fatalf("SquaredLoss = %v, want [0 4 9]", got)
	}
}

func TestInaccuracy(t *testing.T) {
	got := Inaccuracy([]float64{1, 0, 1}, []float64{1, 1, 0})
	if !reflect.DeepEqual(got, []float64{0, 1, 1}) {
		t.Fatalf("Inaccuracy = %v, want [0 1 1]", got)
	}
}

func TestAbsLoss(t *testing.T) {
	got := AbsLoss([]float64{1, -2}, []float64{3, -5})
	if !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Fatalf("AbsLoss = %v, want [2 3]", got)
	}
}

func TestErrorVectorsNonNegativeProperty(t *testing.T) {
	// SliceLine requires e >= 0 for any error function; verify on random
	// inputs.
	f := func(y, yhat []float64) bool {
		n := len(y)
		if len(yhat) < n {
			n = len(yhat)
		}
		y, yhat = y[:n], yhat[:n]
		for _, e := range SquaredLoss(y, yhat) {
			if e < 0 {
				return false
			}
		}
		for _, e := range AbsLoss(y, yhat) {
			if e < 0 {
				return false
			}
		}
		for _, e := range Inaccuracy(y, yhat) {
			if e != 0 && e != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for i, f := range []func(){
		func() { SquaredLoss([]float64{1}, []float64{1, 2}) },
		func() { Inaccuracy([]float64{1}, nil) },
		func() { AbsLoss(nil, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
