package matrix

import (
	"math/bits"
	"math/rand"
	"testing"
)

// bitAt reports whether row i is set in column c of cb.
func bitAt(cb *ColumnBits, c, i int) bool {
	return cb.Col(c)[i>>6]&(uint64(1)<<uint(i&63)) != 0
}

// popCount returns the number of rows set in column c of cb.
func popCount(cb *ColumnBits, c int) int {
	n := 0
	for _, w := range cb.Col(c) {
		n += bits.OnesCount64(w)
	}
	return n
}

// randomCSR01 builds a random 0/1 CSR matrix with the given density.
func randomCSR01(rng *rand.Rand, rows, cols int, density float64) *CSR {
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

// TestPackColumnsMatchesCSR: every bit of the packed form equals the dense
// 0/1 view of the matrix, across ragged tail shapes (rows % 64 != 0), exact
// word multiples and empty columns.
func TestPackColumnsMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct{ rows, cols int }{
		{1, 1}, {63, 3}, {64, 3}, {65, 3}, {128, 5}, {200, 8}, {1000, 12},
	}
	for _, sh := range shapes {
		x := randomCSR01(rng, sh.rows, sh.cols, 0.2)
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
				if got := bitAt(cb, c, i); got != want {
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
			ts = append(ts, Triple{Row: i, Col: 0})
		}
		cb := PackColumns(CSRFromTriples(rows, 1, ts))
		if got := popCount(cb, 0); got != rows {
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
		if len(cb.bits) != sh.cols*((sh.rows+63)/64) {
			t.Fatalf("%dx%d: %d packed words", sh.rows, sh.cols, len(cb.bits))
		}
		for c := 0; c < sh.cols; c++ {
			if popCount(cb, c) != 0 {
				t.Fatalf("%dx%d: empty matrix has set bits in column %d", sh.rows, sh.cols, c)
			}
		}
	}
}

// TestNewColumnBits: packed words taken back out of PackColumns rebuild the
// same bitset, and the constructor refuses a word count other than
// cols·⌈rows/64⌉, a bit past the last row and negative shapes.
func TestNewColumnBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][2]int{{70, 5}, {64, 3}, {1, 1}, {0, 4}, {9, 0}} {
		rows, cols := shape[0], shape[1]
		want := PackColumns(randomCSR01(rng, rows, cols, 0.4))
		var words []uint64
		for c := 0; c < cols; c++ {
			words = append(words, want.Col(c)...)
		}
		got, err := NewColumnBits(rows, cols, words)
		if err != nil {
			t.Fatalf("%d×%d: %v", rows, cols, err)
		}
		if got.Rows() != rows || got.Cols() != cols || got.Words() != want.Words() {
			t.Fatalf("%d×%d: rebuilt as %d×%d with %d words per column", rows, cols, got.Rows(), got.Cols(), got.Words())
		}
		for c := 0; c < cols; c++ {
			for i := 0; i < rows; i++ {
				if bitAt(got, c, i) != bitAt(want, c, i) {
					t.Fatalf("%d×%d: bit (%d,%d) differs", rows, cols, c, i)
				}
			}
		}
	}
	for _, tc := range []struct {
		name       string
		rows, cols int
		words      []uint64
	}{
		{"one word short", 70, 2, make([]uint64, 3)},
		{"one word extra", 70, 2, make([]uint64, 5)},
		{"words for no rows", 0, 2, make([]uint64, 1)},
		{"a bit past the last row", 70, 2, []uint64{0, 0, 0, 1 << 6}},
		{"the top bit of a ragged tail", 1, 1, []uint64{1 << 63}},
		{"negative rows", -1, 2, nil},
		{"negative columns", 64, -1, nil},
	} {
		if _, err := NewColumnBits(tc.rows, tc.cols, tc.words); err == nil {
			t.Errorf("NewColumnBits accepted %s", tc.name)
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
		// Cells drive placement: odd bytes store a one, even bytes leave
		// their cell empty, and a cell hit twice is stored once.
		for k, b := range cells {
			if b%2 == 1 {
				ts = append(ts, Triple{Row: (k * 131) % rows, Col: int(b) % cols})
			}
		}
		x := CSRFromTriples(rows, cols, ts)
		cb := PackColumns(x)
		for c := 0; c < cols; c++ {
			count := 0
			for i := 0; i < rows; i++ {
				want := x.At(i, c) != 0
				if bitAt(cb, c, i) != want {
					t.Fatalf("bit (%d,%d) mismatch", c, i)
				}
				if want {
					count++
				}
			}
			if popCount(cb, c) != count {
				t.Fatalf("column %d popcount %d, want %d", c, popCount(cb, c), count)
			}
		}
	})
}

// TestKeepColsMatchesSelectCols: narrowing a packed matrix in place gives
// the packing of the CSR restricted to the same columns, bit for bit, over
// ragged and exact word counts, the empty and the full column set, and
// allocates nothing.
func TestKeepColsMatchesSelectCols(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][2]int{{70, 9}, {64, 6}, {1, 3}, {0, 4}} {
		rows, cols := shape[0], shape[1]
		x := randomCSR01(rng, rows, cols, 0.4)
		for _, idx := range [][]int{{}, {0}, {cols - 1}, {0, 2}, {1, 2, cols - 1}, allCols(cols)} {
			if len(idx) > 1 && idx[len(idx)-1] <= idx[len(idx)-2] {
				continue // not increasing on this few columns
			}
			// AllocsPerRun calls f twice: a warm-up and the measured run.
			packs := []*ColumnBits{PackColumns(x), PackColumns(x)}
			if allocs := testing.AllocsPerRun(1, func() {
				packs[0].KeepCols(idx)
				packs = packs[1:]
			}); allocs != 0 {
				t.Fatalf("%d×%d keep %v: KeepCols allocated %v times", rows, cols, idx, allocs)
			}
			cb := PackColumns(x)
			cb.KeepCols(idx)
			want := PackColumns(x.SelectCols(idx))
			if cb.Rows() != rows || cb.Cols() != len(idx) || cb.Words() != want.Words() {
				t.Fatalf("%d×%d keep %v: %d×%d with %d words per column", rows, cols, idx, cb.Rows(), cb.Cols(), cb.Words())
			}
			for c := range idx {
				for i := 0; i < rows; i++ {
					if bitAt(cb, c, i) != bitAt(want, c, i) {
						t.Fatalf("%d×%d keep %v: bit (%d,%d) differs", rows, cols, idx, c, i)
					}
				}
			}
		}
	}
	for _, bad := range [][]int{{1, 1}, {2, 1}, {-1}, {4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KeepCols(%v) on 4 columns did not panic", bad)
				}
			}()
			PackColumns(randomCSR01(rng, 10, 4, 0.5)).KeepCols(bad)
		}()
	}
}

func allCols(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
