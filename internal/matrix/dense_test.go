package matrix

import (
	"reflect"
	"testing"
)

func TestNewDenseZeroed(t *testing.T) {
	d := NewDense(3, 4)
	if d.Rows() != 3 || d.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", d.Rows(), d.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if d.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, d.At(i, j))
			}
		}
	}
}

func TestDenseSetAt(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(1, 2, 7.5)
	d.Set(0, 0, -1)
	if got := d.At(1, 2); got != 7.5 {
		t.Errorf("At(1,2) = %v, want 7.5", got)
	}
	if got := d.At(0, 0); got != -1 {
		t.Errorf("At(0,0) = %v, want -1", got)
	}
}

func TestDenseOutOfBoundsPanics(t *testing.T) {
	d := NewDense(2, 2)
	cases := []func(){
		func() { d.At(2, 0) },
		func() { d.At(0, 2) },
		func() { d.At(-1, 0) },
		func() { d.Set(0, -1, 1) },
		func() { d.Row(5) },
		func() { d.Col(-1) },
	}
	for i, f := range cases {
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

func TestNewDenseDataLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestDenseTranspose(t *testing.T) {
	d := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := d.T()
	want := NewDenseData(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if !tr.Equal(want) {
		t.Fatalf("T() = %v, want %v", tr, want)
	}
	if !tr.T().Equal(d) {
		t.Fatal("double transpose is not identity")
	}
}

func TestDenseAddSubMulElem(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	if got, want := Add(a, b), NewDenseData(2, 2, []float64{6, 8, 10, 12}); !got.Equal(want) {
		t.Errorf("Add = %v, want %v", got, want)
	}
}

func TestDenseShapeMismatchPanics(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(a, b)
}

func TestScaleRows(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	got := ScaleRows(a, []float64{10, 0.5})
	want := NewDenseData(2, 2, []float64{10, 20, 1.5, 2})
	if !got.Equal(want) {
		t.Fatalf("ScaleRows = %v, want %v", got, want)
	}
}

func TestCmpScalarIndicators(t *testing.T) {
	a := NewDenseData(1, 4, []float64{1, 2, 3, 2})
	if got, want := EqScalar(a, 2), NewDenseData(1, 4, []float64{0, 1, 0, 1}); !got.Equal(want) {
		t.Errorf("EqScalar = %v, want %v", got, want)
	}
}

func TestSelectRowsCols(t *testing.T) {
	a := NewDenseData(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if got, want := SelectRows(a, []int{2, 0}), NewDenseData(2, 3, []float64{7, 8, 9, 1, 2, 3}); !got.Equal(want) {
		t.Errorf("SelectRows = %v, want %v", got, want)
	}
	if got, want := SelectCols(a, []int{1}), NewDenseData(3, 1, []float64{2, 5, 8}); !got.Equal(want) {
		t.Errorf("SelectCols = %v, want %v", got, want)
	}
}

func TestEqualApprox(t *testing.T) {
	a := NewDenseData(1, 2, []float64{1, 2})
	b := NewDenseData(1, 2, []float64{1.0000001, 2})
	if !a.EqualApprox(b, 1e-6) {
		t.Error("EqualApprox(1e-6) = false, want true")
	}
	if a.EqualApprox(b, 1e-9) {
		t.Error("EqualApprox(1e-9) = true, want false")
	}
	if a.EqualApprox(NewDense(2, 1), 1) {
		t.Error("EqualApprox with shape mismatch = true, want false")
	}
}

func TestUpperTriEq(t *testing.T) {
	a := NewDenseData(3, 3, []float64{
		9, 1, 2,
		1, 9, 1,
		2, 1, 9,
	})
	rows, cols := UpperTriEq(a, 1)
	if !reflect.DeepEqual(rows, []int{0, 1}) || !reflect.DeepEqual(cols, []int{1, 2}) {
		t.Fatalf("UpperTriEq = %v/%v, want [0 1]/[1 2]", rows, cols)
	}
}

func TestUpperTriEqNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UpperTriEq(NewDense(2, 3), 1)
}
