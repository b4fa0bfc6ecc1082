package matrix

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCSRFromTriplesBasic(t *testing.T) {
	m := CSRFromTriples(3, 3, []Triple{
		{Row: 0, Col: 1},
		{Row: 2, Col: 0},
		{Row: 0, Col: 0},
	})
	want := NewDenseData(3, 3, []float64{1, 1, 0, 0, 0, 0, 1, 0, 0})
	if !m.ToDense().Equal(want) {
		t.Fatalf("CSRFromTriples = %v, want %v", m.ToDense(), want)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
}

func TestCSRFromTriplesSumsDuplicates(t *testing.T) {
	// A pattern matrix: a repeated coordinate is stored once.
	m := CSRFromTriples(2, 3, []Triple{
		{Row: 1, Col: 1},
		{Row: 1, Col: 2},
		{Row: 1, Col: 1},
		{Row: 1, Col: 1},
	})
	if got := m.At(1, 1); got != 1 {
		t.Fatalf("At(1,1) = %v, want 1", got)
	}
	if got := m.RowEntries(1); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("row 1 = %v, want [1 2]", got)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 after merging", m.NNZ())
	}
}

func TestCSRFromTriplesOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CSRFromTriples(2, 2, []Triple{{Row: 2, Col: 0}})
}

func TestCSRRoundTripDense(t *testing.T) {
	d := NewDenseData(3, 4, []float64{
		0, 1, 0, 1,
		0, 0, 0, 0,
		1, 0, 1, 0,
	})
	m := CSRFromDense(d)
	if !m.ToDense().Equal(d) {
		t.Fatalf("round trip = %v, want %v", m.ToDense(), d)
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
}

func TestCSRAt(t *testing.T) {
	m := CSRFromTriples(2, 5, []Triple{
		{Row: 0, Col: 4},
		{Row: 0, Col: 1},
	})
	if got := m.At(0, 1); got != 1 {
		t.Errorf("At(0,1) = %v, want 1", got)
	}
	if got := m.At(0, 2); got != 0 {
		t.Errorf("At(0,2) = %v, want 0", got)
	}
	if got := m.At(1, 4); got != 0 {
		t.Errorf("At(1,4) = %v, want 0", got)
	}
}

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	var ts []Triple
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				ts = append(ts, Triple{Row: i, Col: j})
			}
		}
	}
	return CSRFromTriples(rows, cols, ts)
}

func TestCSRTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		m := randomCSR(rng, 1+rng.Intn(10), 1+rng.Intn(10), 0.3)
		if !m.T().ToDense().Equal(m.ToDense().T()) {
			t.Fatalf("trial %d: CSR transpose disagrees with dense transpose", trial)
		}
	}
}

func TestCSRTransposeInvolution(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.4)
		return m.T().T().Equal(m)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCSRRowRange: a row range equals the rows it names, at the edges and
// when empty, and is a view: it shares the parent's column ids, and their
// capacity ends at the range's last row.
func TestCSRRowRange(t *testing.T) {
	// Row 2 is empty, so ranges starting or ending there share a boundary.
	m := CSRFromDense(NewDenseData(5, 3, []float64{
		1, 0, 1,
		0, 1, 0,
		0, 0, 0,
		1, 1, 1,
		0, 0, 1,
	}))
	d := m.ToDense()
	rowPtr, ids := m.Components()
	for _, r := range []struct{ lo, hi int }{
		{0, 0}, {2, 2}, {5, 5}, // empty
		{1, 2}, {2, 3}, // single row, the second one empty
		{0, 2}, {3, 5}, // first and last rows
		{0, 5}, // full
	} {
		v := m.RowRange(r.lo, r.hi)
		var rows []int
		for i := r.lo; i < r.hi; i++ {
			rows = append(rows, i)
		}
		if !v.ToDense().Equal(SelectRows(d, rows)) {
			t.Fatalf("RowRange(%d, %d) = %v, want rows %v of %v", r.lo, r.hi, v.ToDense(), rows, d)
		}
		_, vids := v.Components()
		if len(vids) != rowPtr[r.hi]-rowPtr[r.lo] || cap(vids) != len(vids) {
			t.Fatalf("RowRange(%d, %d) ids have length %d and capacity %d, want both %d",
				r.lo, r.hi, len(vids), cap(vids), rowPtr[r.hi]-rowPtr[r.lo])
		}
		if len(vids) > 0 && &vids[0] != &ids[rowPtr[r.lo]] {
			t.Fatalf("RowRange(%d, %d) copied the parent's ids instead of sharing them", r.lo, r.hi)
		}
	}
	for _, r := range []struct{ lo, hi int }{{-1, 2}, {3, 2}, {0, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RowRange(%d, %d) did not panic", r.lo, r.hi)
				}
			}()
			m.RowRange(r.lo, r.hi)
		}()
	}
}

func TestCSRSelectCols(t *testing.T) {
	m := CSRFromDense(NewDenseData(2, 4, []float64{1, 1, 0, 1, 0, 0, 1, 1}))
	got := m.SelectCols([]int{1, 3})
	want := NewDenseData(2, 2, []float64{1, 1, 0, 1})
	if !got.ToDense().Equal(want) {
		t.Fatalf("SelectCols = %v, want %v", got.ToDense(), want)
	}

	// A larger matrix: the result matches the dense projection, and the
	// allocations do not grow with the nonzeros (a remap, rowPtr, exactly
	// sized colIdx and the header).
	d := NewDense(1000, 8)
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if (i+j)%3 != 0 {
				d.Set(i, j, 1)
			}
		}
	}
	big := CSRFromDense(d)
	idx := []int{0, 2, 3, 5, 7}
	if got, want := big.SelectCols(idx).ToDense(), SelectCols(d, idx); !got.Equal(want) {
		t.Fatal("SelectCols on the 1000x8 matrix disagrees with the dense projection")
	}
	if allocs := testing.AllocsPerRun(10, func() { big.SelectCols(idx) }); allocs > 6 {
		t.Fatalf("SelectCols made %.0f allocations on %d nonzeros, want <= 6", allocs, big.NNZ())
	}

	// Keeping every column selects the matrix itself.
	if all := []int{0, 1, 2, 3, 4, 5, 6, 7}; big.SelectCols(all) != big {
		t.Fatal("SelectCols over every column copied the matrix instead of returning it")
	}
}

func TestCSRSelectColsRequiresIncreasing(t *testing.T) {
	m := CSRFromDense(NewDenseData(1, 3, []float64{1, 2, 3}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-increasing column selection")
		}
	}()
	m.SelectCols([]int{2, 1})
}

func TestCSRRowEntriesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		m := randomCSR(rng, 6, 12, 0.5)
		for i := 0; i < m.Rows(); i++ {
			cols := m.RowEntries(i)
			for k := 1; k < len(cols); k++ {
				if cols[k-1] >= cols[k] {
					t.Fatalf("trial %d row %d: columns not strictly increasing: %v", trial, i, cols)
				}
			}
		}
	}
}

func TestCSREmptyShapes(t *testing.T) {
	m := CSRFromTriples(0, 5, nil)
	if m.Rows() != 0 || m.NNZ() != 0 {
		t.Fatal("empty matrix invariants violated")
	}
	tr := m.T()
	if tr.Rows() != 5 || tr.Cols() != 0 {
		t.Fatalf("transpose of 0x5 = %dx%d, want 5x0", tr.Rows(), tr.Cols())
	}
}
