package dist

import (
	"math"
	"sort"
	"testing"
)

// Mode bits of FuzzServiceLoad: rawIDs takes column ids straight from the
// bytes, in any order and range; binaryErrs draws 0/1 errors instead of
// fractional ones. The bits above them pick a buffer corruption.
const (
	fuzzRawIDs     = 1
	fuzzBinaryErrs = 2
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// FuzzServiceLoad drives the worker's Load/Eval surface with partitions
// decoded from arbitrary bytes, malformed ones included. Load must never
// panic: net/rpc runs it without a recover. When Load accepts, candidates
// of 1–3 strictly ascending ids must evaluate, bit for bit, to a brute-force
// count over the shipped rows in ascending row order, under whichever
// kernel the partition's density selects: rows hold at most four ids, so
// narrow partitions take the bitset kernel and wide ones the CSR kernel.
func FuzzServiceLoad(f *testing.F) {
	// A 2-row, 100-column partition, sparse enough for the CSR kernel,
	// whose row 0 repeats column 0, evaluated for the level-2 candidate
	// {0, 5}. No row holds both columns, yet a worker that accepted it
	// counted row 0.
	f.Add(uint8(2), uint8(100), uint8(fuzzRawIDs), fuzzSeed([][]int{{0, 0}, {5}}, []byte{8, 8}, [][]int{{0, 5}}))
	// Well-formed partitions with matching candidates: 200 columns select
	// the CSR kernel, 20 the bitset kernel; errors fractional and 0/1.
	rows := [][]int{{3, 14, 19}, {3, 19}, {14}, {}, {3, 14, 19}, {14, 19}}
	errs := []byte{12, 5, 16, 7, 3, 8}
	cands := [][]int{{3}, {14}, {19}, {3, 14}, {3, 19}, {14, 19}, {3, 14, 19}}
	for _, cols := range []uint8{200, 20} {
		f.Add(uint8(len(rows)), cols, uint8(fuzzRawIDs), fuzzSeed(rows, errs, cands))
		f.Add(uint8(len(rows)), cols, uint8(fuzzRawIDs|fuzzBinaryErrs), fuzzSeed(rows, errs, cands))
	}
	// One seed per buffer corruption, and one with structured ids.
	for fault := uint8(1); fault <= 5; fault++ {
		f.Add(uint8(len(rows)), uint8(20), fuzzRawIDs|fault<<2, fuzzSeed(rows, errs, cands))
	}
	f.Add(uint8(40), uint8(12), uint8(0), []byte{4, 0, 1, 2, 9, 3, 1, 0, 3, 8, 2, 3, 4, 1, 0, 2, 5, 0, 7, 4})
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw, mode uint8, data []byte) {
		in := fuzzBytes(data)
		a := decodeLoadArgs(&in, int(rowsRaw), int(colsRaw), mode)
		var svc Service
		if err := svc.Load(a, &LoadReply{}); err != nil || a.Cols == 0 {
			return
		}
		for call := 0; call < 3; call++ {
			level := 1 + int(in.next()%3)
			n := int(in.next() % 8)
			blockSize := int(in.next() % 4)
			var cands [][]int
			for s := 0; s < n; s++ {
				cand := make([]int, level)
				for j := range cand {
					cand[j] = int(in.next()) % a.Cols
				}
				sort.Ints(cand)
				if checkCands([][]int{cand}, level, a.Cols) == nil {
					cands = append(cands, cand)
				}
			}
			var reply EvalReply
			if err := svc.Eval(&EvalArgs{Part: a.Part, Cols: cands, Level: level, BlockSize: blockSize}, &reply); err != nil {
				t.Fatalf("Eval of valid candidates %v: %v", cands, err)
			}
			for s, cand := range cands {
				ss, se, sm := bruteForceEval(a, cand)
				got := [3]float64{reply.SS[s], reply.SE[s], reply.SM[s]}
				want := [3]float64{ss, se, sm}
				for k := range got {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("candidate %v on %d×%d partition: (ss, se, sm) = %v, brute force %v",
							cand, a.Rows, a.Cols, got, want)
					}
				}
			}
		}
	})
}

// fuzzSeed encodes rows of raw ids with their error bytes, then one Eval
// call per candidate size, in FuzzServiceLoad's byte layout.
func fuzzSeed(rows [][]int, errs []byte, cands [][]int) []byte {
	var out []byte
	for i, row := range rows {
		out = append(out, byte(len(row)))
		for _, c := range row {
			out = append(out, byte(c+8))
		}
		out = append(out, errs[i])
	}
	for level := 1; level <= 3; level++ {
		var ids []byte
		n := 0
		for _, cand := range cands {
			if len(cand) == level {
				n++
				for _, c := range cand {
					ids = append(ids, byte(c))
				}
			}
		}
		out = append(append(out, byte(level-1), byte(n), byte(level)), ids...)
	}
	return out
}

// decodeLoadArgs builds a partition from the fuzz bytes. Per row: a count
// byte (0–4 ids), the id bytes, then an error byte. Ids are strictly
// ascending in [0, cols) unless mode has fuzzRawIDs; bits 2–4 of mode pick
// a corruption of the finished buffers.
func decodeLoadArgs(in *fuzzBytes, rows, cols int, mode uint8) *LoadArgs {
	a := &LoadArgs{Part: 1, Rows: rows, Cols: cols, RowPtr: make([]int, rows+1), Err: make([]float64, rows)}
	for i := 0; i < rows; i++ {
		c := -1
		for n := in.next() % 5; n > 0; n-- {
			b := int(in.next())
			if mode&fuzzRawIDs != 0 {
				a.ColIdx = append(a.ColIdx, b-8)
				continue
			}
			if c += 1 + b%(cols/4+1); c < cols {
				a.ColIdx = append(a.ColIdx, c)
			}
		}
		a.RowPtr[i+1] = len(a.ColIdx)
		if b := in.next(); mode&fuzzBinaryErrs != 0 {
			a.Err[i] = float64(b & 1)
		} else {
			a.Err[i] = float64(b) / 8
		}
	}
	switch (mode >> 2) % 8 {
	case 1: // shift one rowPtr entry
		a.RowPtr[int(in.next())%len(a.RowPtr)] += int(int8(in.next()))
	case 2: // a non-finite or negative error
		if len(a.Err) > 0 {
			a.Err[int(in.next())%len(a.Err)] = []float64{math.NaN(), math.Inf(1), -1, -0.5}[in.next()%4]
		}
	case 3: // drop the last element of one buffer
		switch in.next() % 3 {
		case 0:
			a.RowPtr = a.RowPtr[:len(a.RowPtr)-1]
		case 1:
			if len(a.ColIdx) > 0 {
				a.ColIdx = a.ColIdx[:len(a.ColIdx)-1]
			}
		default:
			if len(a.Err) > 0 {
				a.Err = a.Err[:len(a.Err)-1]
			}
		}
	case 4: // a row count that disagrees with the buffers
		a.Rows += int(int8(in.next()))
	case 5: // a column count the ids may exceed
		a.Cols = int(in.next())
	}
	return a
}

// bruteForceEval counts the rows of a that hold every id of cand, in
// ascending row order, with unit weights: (size, error sum, max error).
func bruteForceEval(a *LoadArgs, cand []int) (ss, se, sm float64) {
	for i := 0; i < a.Rows; i++ {
		row := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
		holds := true
		for _, c := range cand {
			found := false
			for _, r := range row {
				found = found || r == c
			}
			holds = holds && found
		}
		if holds {
			ss++
			se += a.Err[i]
			if a.Err[i] > sm {
				sm = a.Err[i]
			}
		}
	}
	return ss, se, sm
}
