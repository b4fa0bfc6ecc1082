package matrix

import (
	"math/rand"
	"testing"
)

// randomCSR01 builds a random 0/1 CSR matrix with the given density,
// optionally planting explicit stored zeros (which PackColumns must skip,
// matching the CSR kernels' treatment).
func randomCSR01(rng *rand.Rand, rows, cols int, density float64, storedZeros bool) *CSR {
	var ts []Triple
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			switch {
			case rng.Float64() < density:
				ts = append(ts, Triple{Row: i, Col: j, Val: 1})
			case storedZeros && rng.Float64() < 0.05:
				ts = append(ts, Triple{Row: i, Col: j, Val: 0})
			}
		}
	}
	return CSRFromTriples(rows, cols, ts)
}

// TestPackColumnsMatchesCSR: every bit of the packed form equals the dense
// 0/1 view of the matrix, across ragged tail shapes (rows % 64 != 0), exact
// word multiples, empty columns, and stored zeros.
func TestPackColumnsMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct{ rows, cols int }{
		{1, 1}, {63, 3}, {64, 3}, {65, 3}, {128, 5}, {200, 8}, {1000, 12},
	}
	for _, sh := range shapes {
		x := randomCSR01(rng, sh.rows, sh.cols, 0.2, true)
		cb := PackColumns(x)
		if cb.Rows() != sh.rows || cb.Cols() != sh.cols {
			t.Fatalf("%dx%d: packed shape %dx%d", sh.rows, sh.cols, cb.Rows(), cb.Cols())
		}
		if want := (sh.rows + 63) / 64; cb.Words() != want {
			t.Fatalf("%dx%d: %d words per column, want %d", sh.rows, sh.cols, cb.Words(), want)
		}
		for c := 0; c < sh.cols; c++ {
			for i := 0; i < sh.rows; i++ {
				want := x.At(i, c) != 0
				if got := cb.Bit(c, i); got != want {
					t.Fatalf("%dx%d: bit (%d,%d) = %v, want %v", sh.rows, sh.cols, c, i, got, want)
				}
			}
		}
	}
}

// TestPackColumnsRaggedTailZero pins the tail-word invariant: bits past the
// last row are never set, so popcounts cannot overcount. An all-ones column
// makes every representable bit of the tail word a potential overcount.
func TestPackColumnsRaggedTailZero(t *testing.T) {
	for _, rows := range []int{1, 63, 65, 127, 130} {
		var ts []Triple
		for i := 0; i < rows; i++ {
			ts = append(ts, Triple{Row: i, Col: 0, Val: 1})
		}
		cb := PackColumns(CSRFromTriples(rows, 1, ts))
		if got := cb.CountCol(0); got != rows {
			t.Fatalf("rows=%d: all-ones column popcount %d", rows, got)
		}
		last := cb.Col(0)[cb.Words()-1]
		if tail := rows % 64; tail != 0 {
			if last>>uint(tail) != 0 {
				t.Fatalf("rows=%d: bits set past the last row in tail word %064b", rows, last)
			}
		}
	}
}

// TestPackColumnsEmptyAndDegenerate covers the degenerate shapes: zero-row
// and zero-column matrices pack to empty storage without panicking.
func TestPackColumnsEmptyAndDegenerate(t *testing.T) {
	for _, sh := range []struct{ rows, cols int }{{0, 4}, {5, 0}, {0, 0}} {
		cb := PackColumns(CSRFromTriples(sh.rows, sh.cols, nil))
		if cb.Rows() != sh.rows || cb.Cols() != sh.cols {
			t.Fatalf("%dx%d: packed shape %dx%d", sh.rows, sh.cols, cb.Rows(), cb.Cols())
		}
		if cb.MemBytes() != int64(sh.cols*((sh.rows+63)/64))*8 {
			t.Fatalf("%dx%d: MemBytes %d", sh.rows, sh.cols, cb.MemBytes())
		}
		for c := 0; c < sh.cols; c++ {
			if cb.CountCol(c) != 0 {
				t.Fatalf("%dx%d: empty matrix has set bits in column %d", sh.rows, sh.cols, c)
			}
		}
	}
}

// FuzzBitsetPack feeds arbitrary byte strings as matrix shapes and cell
// contents and asserts PackColumns agrees with the CSR view bit-for-bit.
func FuzzBitsetPack(f *testing.F) {
	f.Add(uint16(65), uint8(3), []byte{0x01, 0x80, 0xff, 0x00})
	f.Add(uint16(64), uint8(1), []byte{0xaa})
	f.Add(uint16(1), uint8(8), []byte{})
	f.Fuzz(func(t *testing.T, rowsRaw uint16, colsRaw uint8, cells []byte) {
		rows := int(rowsRaw%300) + 1
		cols := int(colsRaw%12) + 1
		var ts []Triple
		// Cells drive both placement and value: odd bytes store 1, bytes
		// divisible by 16 store an explicit zero (packed as unset).
		for k, b := range cells {
			i := (k * 131) % rows
			j := int(b) % cols
			switch {
			case b%2 == 1:
				ts = append(ts, Triple{Row: i, Col: j, Val: 1})
			case b%16 == 0:
				ts = append(ts, Triple{Row: i, Col: j, Val: 0})
			}
		}
		x := CSRFromTriples(rows, cols, ts)
		cb := PackColumns(x)
		for c := 0; c < cols; c++ {
			count := 0
			for i := 0; i < rows; i++ {
				want := x.At(i, c) != 0
				if cb.Bit(c, i) != want {
					t.Fatalf("bit (%d,%d) mismatch", c, i)
				}
				if want {
					count++
				}
			}
			if cb.CountCol(c) != count {
				t.Fatalf("column %d popcount %d, want %d", c, cb.CountCol(c), count)
			}
		}
	})
}
