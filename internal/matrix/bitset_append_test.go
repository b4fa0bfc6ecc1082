package matrix

import (
	"math/rand"
	"reflect"
	"testing"
)

// csrPrefixWithRemap builds the "accumulated" CSR for an append schedule:
// rows [0, upto) of full, with columns passed through remap into newCols.
func csrPrefixWithRemap(full *CSR, upto, newCols int, remap []int) *CSR {
	var ts []Triple
	for i := 0; i < upto; i++ {
		cols, vals := full.RowEntries(i)
		for k, c := range cols {
			nc := c
			if remap != nil {
				nc = remap[c]
			}
			ts = append(ts, Triple{Row: i, Col: nc, Val: vals[k]})
		}
	}
	return CSRFromTriples(upto, newCols, ts)
}

// TestAppendRowsMatchesPack: growing a packed bitset row-batch by row-batch
// must land bit-identical to packing the accumulated matrix from scratch,
// across word-boundary crossings and stored zeros.
func TestAppendRowsMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		rows, cols int
		cuts       []int // prefix sizes; last must equal rows
	}{
		{rows: 10, cols: 4, cuts: []int{3, 7, 10}},
		{rows: 130, cols: 6, cuts: []int{60, 64, 65, 128, 130}}, // crosses both word boundaries
		{rows: 64, cols: 3, cuts: []int{1, 64}},                 // exact word fill
		{rows: 200, cols: 9, cuts: []int{199, 200}},
	} {
		full := randomCSR01(rng, tc.rows, tc.cols, 0.3, true)
		first := csrPrefixWithRemap(full, tc.cuts[0], tc.cols, nil)
		cb := PackColumns(first)
		for _, cut := range tc.cuts[1:] {
			acc := csrPrefixWithRemap(full, cut, tc.cols, nil)
			if err := cb.AppendRows(acc); err != nil {
				t.Fatalf("AppendRows to %d rows: %v", cut, err)
			}
			want := PackColumns(acc)
			if !reflect.DeepEqual(cb, want) {
				t.Fatalf("rows=%d cols=%d cut=%d: incremental pack differs from scratch", tc.rows, tc.cols, cut)
			}
		}
	}
}

// TestRemapColsThenAppend models a domain-growth generation: remap columns
// into a wider space (new columns interleaved), then append rows that
// populate them. The result must equal packing the final matrix outright.
func TestRemapColsThenAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	oldCols, newCols := 5, 8
	remap := []int{0, 1, 3, 4, 6} // blocks shifted as by two mid-block insertions
	nOld, nNew := 70, 70+61       // crosses a word boundary too

	full := randomCSR01(rng, nNew, newCols, 0.3, false)
	// Old rows must not touch the new columns (codes allocated by the append);
	// rebuild the prefix restricted to remap targets, as real growth behaves.
	inOld := make(map[int]bool, len(remap))
	for _, nc := range remap {
		inOld[nc] = true
	}
	var ts []Triple
	for i := 0; i < nNew; i++ {
		cols, vals := full.RowEntries(i)
		for k, c := range cols {
			if i < nOld && !inOld[c] {
				continue
			}
			ts = append(ts, Triple{Row: i, Col: c, Val: vals[k]})
		}
	}
	final := CSRFromTriples(nNew, newCols, ts)

	// The pre-growth matrix: old rows, old column space (inverse remap).
	inv := make([]int, newCols)
	for i := range inv {
		inv[i] = -1
	}
	for c, nc := range remap {
		inv[nc] = c
	}
	var oldTs []Triple
	for i := 0; i < nOld; i++ {
		cols, vals := final.RowEntries(i)
		for k, c := range cols {
			oldTs = append(oldTs, Triple{Row: i, Col: inv[c], Val: vals[k]})
		}
	}
	cb := PackColumns(CSRFromTriples(nOld, oldCols, oldTs))

	if err := cb.RemapCols(newCols, remap); err != nil {
		t.Fatalf("RemapCols: %v", err)
	}
	if err := cb.AppendRows(final); err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	if want := PackColumns(final); !reflect.DeepEqual(cb, want) {
		t.Fatal("remap+append differs from packing the final matrix from scratch")
	}
}

func TestRemapColsErrors(t *testing.T) {
	cb := PackColumns(CSRFromTriples(4, 3, []Triple{{Row: 0, Col: 0, Val: 1}}))
	if err := cb.RemapCols(4, []int{0, 1}); err == nil {
		t.Error("short remap: want error")
	}
	if err := cb.RemapCols(2, []int{0, 1, 1}); err == nil {
		t.Error("shrink: want error")
	}
	if err := cb.RemapCols(4, []int{0, 1, 4}); err == nil {
		t.Error("out-of-bounds target: want error")
	}
	if err := cb.RemapCols(4, []int{0, 1, 1}); err == nil {
		t.Error("duplicate target: want error")
	}
	// cb must be unchanged after the failed calls.
	if cb.Cols() != 3 || !bitAt(cb, 0, 0) {
		t.Error("failed RemapCols mutated the bitset")
	}
}

func TestAppendRowsErrors(t *testing.T) {
	cb := PackColumns(CSRFromTriples(4, 3, nil))
	if err := cb.AppendRows(CSRFromTriples(6, 2, nil)); err == nil {
		t.Error("column mismatch: want error")
	}
	if err := cb.AppendRows(CSRFromTriples(2, 3, nil)); err == nil {
		t.Error("row shrink: want error")
	}
	// No-op append (same row count) is legal.
	if err := cb.AppendRows(CSRFromTriples(4, 3, nil)); err != nil {
		t.Errorf("same-size append: %v", err)
	}
}
