package dist

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"sliceline/internal/matrix"
)

// Mode bits of the fuzz targets: rawIDs takes column ids straight from the
// bytes, in any order and range; binaryErrs draws 0/1 errors instead of
// fractional ones; packed ships the partition as packed words instead of
// int32 CSR ids — with binaryErrs, in the kernel's binary layout and without
// errors, as the driver ships 0/1 errors. The bits above them pick a
// corruption of the message.
const (
	fuzzRawIDs     = 1
	fuzzBinaryErrs = 2
	fuzzPacked     = 4
	fuzzFaultShift = 3
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
// decoded from arbitrary bytes, shipped as either payload, malformed ones
// included. Load must never panic: net/rpc runs it without a recover. When
// Load accepts, candidates of 1–3 strictly ascending ids must evaluate, bit
// for bit, to a brute-force count over the shipped rows in ascending row
// order, under whichever kernel loop the payload and errors select: rows
// hold at most four ids, so a narrow partition shipped as CSR ids takes the
// bitset kernel and a wide one the CSR kernel, packed words in row order
// take the bitset kernel's general loop, and the binary layout its binary
// loop.
func FuzzServiceLoad(f *testing.F) {
	// A 2-row, 100-column partition, sparse enough for the CSR kernel,
	// whose row 0 repeats column 0, evaluated for the level-2 candidate
	// {0, 5}. No row holds both columns, yet a worker that accepted it
	// counted row 0.
	f.Add(uint8(2), uint8(100), uint8(fuzzRawIDs), fuzzSeed([][]int{{0, 0}, {5}}, []byte{8, 8}, nil, [][]int{{0, 5}}))
	// Well-formed partitions with matching candidates, one per kernel loop:
	// CSR ids over 200 columns (the CSR kernel), over 20 columns (the bitset
	// kernel; with 0/1 errors the worker packs the binary layout itself),
	// packed words in row order (the general loop) and the binary layout
	// (the binary loop).
	rows := [][]int{{3, 14, 19}, {3, 19}, {14}, {}, {3, 14, 19}, {14, 19}}
	errs := []byte{12, 5, 16, 7, 3, 8}
	cands := [][]int{{3}, {14}, {19}, {3, 14}, {3, 19}, {14, 19}, {3, 14, 19}}
	for _, mode := range []uint8{fuzzRawIDs, fuzzRawIDs | fuzzBinaryErrs, fuzzRawIDs | fuzzPacked, fuzzRawIDs | fuzzPacked | fuzzBinaryErrs} {
		for _, cols := range []uint8{200, 20} {
			if cols == 200 && mode&fuzzPacked != 0 {
				continue
			}
			f.Add(uint8(len(rows)), cols, mode, fuzzSeed(rows, errs, nil, cands))
		}
	}
	// One seed per message corruption on each payload, with parameter
	// bytes that make the corruption bite where the payload has it, and
	// one with structured ids.
	params := [loadFaults][]byte{
		1:  {2, 0xff}, // row pointer 2 one lower
		2:  {1, 0},    // a NaN error in row 1
		3:  {1, 0},    // the last column id (packed: word) dropped
		4:  {1},       // one row more than the buffers hold
		5:  {19},      // 19 columns: id 19 is out of range, the words are for 20
		6:  {1, 0, 0}, // one byte cut off the column ids (packed: words)
		7:  {3, 0},    // packed: column 3 sets row 6 of 6
		8:  {0, 0},    // column id 0 becomes Cols
		9:  {0},       // the first two column ids swapped
		10: {0},       // wire version 0
		11: nil,       // both payloads
		12: {1},       // binary: one erring row more than the partition has
		13: {0},       // binary: errors shipped beside the layout
	}
	for fault := uint8(1); fault < loadFaults; fault++ {
		for _, mode := range []uint8{fuzzRawIDs, fuzzRawIDs | fuzzPacked, fuzzRawIDs | fuzzPacked | fuzzBinaryErrs} {
			f.Add(uint8(len(rows)), uint8(20), mode|fault<<fuzzFaultShift, fuzzSeed(rows, errs, params[fault], cands))
		}
	}
	// The binary layout's own refusals with their other parameters: a
	// negative erring-row count, CSR row pointers or column ids beside the
	// layout, and a message of wire version 1, which shipped 0/1 errors as
	// an error vector.
	binaryLayout := uint8(fuzzRawIDs | fuzzPacked | fuzzBinaryErrs)
	for _, tc := range []struct {
		fault  uint8
		params []byte
	}{{12, []byte{0}}, {13, []byte{1}}, {13, []byte{2}}, {10, []byte{1}}} {
		f.Add(uint8(len(rows)), uint8(20), binaryLayout|tc.fault<<fuzzFaultShift, fuzzSeed(rows, errs, tc.params, cands))
	}
	// A binary layout whose erring block ends inside a word, a bit set in
	// its padding past the last row, and layouts whose erring block (no row
	// erred) or other block (every row erred) is empty.
	long := make([][]int, 70)
	longErrs := make([]byte, 70)
	for i := range long {
		long[i] = rows[i%len(rows)]
		longErrs[i] = byte(i % 3 % 2)
	}
	f.Add(uint8(70), uint8(20), binaryLayout, fuzzSeed(long, longErrs, nil, cands))
	f.Add(uint8(70), uint8(20), binaryLayout|7<<fuzzFaultShift, fuzzSeed(long, longErrs, []byte{3, 0}, cands))
	f.Add(uint8(len(rows)), uint8(20), binaryLayout, fuzzSeed(rows, make([]byte, len(rows)), nil, cands))
	f.Add(uint8(len(rows)), uint8(20), binaryLayout, fuzzSeed(rows, []byte{1, 1, 1, 1, 1, 1}, nil, cands))
	f.Add(uint8(40), uint8(12), uint8(0), []byte{4, 0, 1, 2, 9, 3, 1, 0, 3, 8, 2, 3, 4, 1, 0, 2, 5, 0, 7, 4})
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw, mode uint8, data []byte) {
		in := fuzzBytes(data)
		rowPtr, colIdx, e := decodePartition(&in, int(rowsRaw), int(colsRaw), mode)
		a := &LoadArgs{Version: wireVersion, Part: 1, Rows: int(rowsRaw), Cols: int(colsRaw), Err: e}
		switch {
		case mode&fuzzPacked != 0 && mode&fuzzBinaryErrs != 0:
			a.Binary, a.Err = true, nil
			a.Bits, a.ErrRows = packLayout(a.Rows, a.Cols, rowPtr, colIdx, e)
		case mode&fuzzPacked != 0:
			a.Bits = packWords(a.Rows, a.Cols, rowPtr, colIdx)
		default:
			a.RowPtr32, a.ColIdx32 = appendInt32s(nil, rowPtr), appendInt32s(nil, colIdx)
		}
		corruptLoad(&in, a, mode>>fuzzFaultShift)
		var svc Service
		if err := svc.Load(a, &LoadReply{}); err != nil || a.Cols == 0 {
			return
		}
		for call := 0; call < 3; call++ {
			level := 1 + int(in.next()%3)
			n := int(in.next() % 8)
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
			args, err := evalArgs(a.Part, cands, level)
			if err != nil {
				t.Fatal(err)
			}
			var reply EvalReply
			if err := svc.Eval(args, &reply); err != nil {
				t.Fatalf("Eval of valid candidates %v: %v", cands, err)
			}
			checkBruteForce(t, a, cands, reply)
		}
	})
}

// FuzzServiceEval drives the worker's Eval surface with candidate arenas
// decoded from arbitrary bytes, over a well-formed partition the driver's
// own loadArgs ships. Eval must never panic, must accept a well-formed
// arena, and every arena it accepts must evaluate bit for bit to the
// brute-force count. The partition bytes are FuzzServiceLoad's layout
// (payload and corruption bits ignored: loadArgs picks the payload); each
// Eval call then reads a level byte, a candidate count, a corruption byte
// and the ids.
func FuzzServiceEval(f *testing.F) {
	rows := [][]int{{3, 14, 19}, {3, 19}, {14}, {}, {3, 14, 19}, {14, 19}}
	errs := []byte{12, 5, 16, 7, 3, 8}
	calls := []byte{
		1, 3, 0, 3, 14, 19, // level 1: {3}, {14}, {19}
		2, 3, 0, 3, 14, 3, 19, 14, 19, // level 2
		3, 1, 0, 3, 14, 19, // level 3
	}
	// One seed per kernel loop: CSR ids over 200 columns (the CSR kernel),
	// over 20 columns with fractional errors (the bitset general loop) and
	// with 0/1 errors (the binary loop).
	for _, tc := range []struct{ cols, mode uint8 }{{200, fuzzRawIDs}, {20, fuzzRawIDs}, {20, fuzzRawIDs | fuzzBinaryErrs}} {
		f.Add(uint8(len(rows)), tc.cols, tc.mode, append(fuzzRows(rows, errs), calls...))
	}
	// One seed per arena corruption.
	for fault := byte(1); fault < evalFaults; fault++ {
		f.Add(uint8(len(rows)), uint8(20), uint8(fuzzRawIDs), append(fuzzRows(rows, errs), 2, 3, fault, 3, 14, 3, 19, 14, 19, 1))
	}
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw, mode uint8, data []byte) {
		in := fuzzBytes(data)
		rowPtr, colIdx, e := decodePartition(&in, int(rowsRaw), int(colsRaw), mode)
		// The driver ships only well-formed partitions; raw ids may repeat,
		// descend or leave [0, cols).
		csr := &LoadArgs{Version: wireVersion, Rows: int(rowsRaw), Cols: int(colsRaw),
			RowPtr32: appendInt32s(nil, rowPtr), ColIdx32: appendInt32s(nil, colIdx), Err: e}
		if _, err := csr.kernel(); err != nil || colsRaw == 0 {
			return
		}
		a := loadArgs(1, matrix.NewCSR(int(rowsRaw), int(colsRaw), rowPtr, colIdx), e)
		var svc Service
		if err := svc.Load(a, &LoadReply{}); err != nil {
			t.Fatalf("the driver's payload for a well-formed partition was refused: %v", err)
		}
		for call := 0; call < 3; call++ {
			level := int(in.next() % 4)
			n := int(in.next() % 8)
			fault := in.next() % evalFaults
			var cands [][]int
			wellFormed := level >= 1
			for s := 0; s < n; s++ {
				cand := make([]int, max(level, 1))
				for j := range cand {
					cand[j] = int(in.next()) % a.Cols
				}
				sort.Ints(cand)
				wellFormed = wellFormed && checkCands([][]int{cand}, len(cand), a.Cols) == nil
				cands = append(cands, cand)
			}
			args := &EvalArgs{Version: wireVersion, Part: 1, Level: level}
			for _, cand := range cands {
				args.Cands = appendInt32s(args.Cands, cand)
			}
			switch fault {
			case 1: // a length that is not a multiple of 4·Level
				args.Cands = append(args.Cands, make([]byte, 1+int(in.next())%(4*max(level, 1)-1))...)
			case 2: // Level ≤ 0
				args.Level = -int(in.next() % 3)
			case 3: // an id out of range
				if len(args.Cands) > 0 {
					i := int(in.next()) % (len(args.Cands) / 4)
					binary.LittleEndian.PutUint32(args.Cands[4*i:], uint32(int32([]int{-1, a.Cols, a.Cols + int(in.next()), math.MinInt32}[in.next()%4])))
				}
			case 4: // ids that are not ascending
				if len(args.Cands) >= 8 {
					i := int(in.next()) % (len(args.Cands)/4 - 1)
					x, y := args.Cands[4*i:4*i+4], args.Cands[4*i+4:4*i+8]
					var tmp [4]byte
					copy(tmp[:], x)
					copy(x, y)
					copy(y, tmp[:])
				}
			}
			var reply EvalReply
			if err := svc.Eval(args, &reply); err != nil {
				if wellFormed && fault == 0 {
					t.Fatalf("Eval refused well-formed candidates %v at level %d: %v", cands, level, err)
				}
				continue
			}
			accepted := make([][]int, len(args.Cands)/4/args.Level)
			for s := range accepted {
				accepted[s] = int32s(args.Cands[4*args.Level*s : 4*args.Level*(s+1)])
			}
			checkBruteForce(t, a, accepted, reply)
		}
	})
}

// Corruption counts: codes 1 … loadFaults-1 of corruptLoad and
// 1 … evalFaults-1 of FuzzServiceEval.
const (
	loadFaults = 14
	evalFaults = 5
)

// fuzzRows encodes rows of raw ids with their error bytes in
// decodePartition's byte layout (under fuzzRawIDs).
func fuzzRows(rows [][]int, errs []byte) []byte {
	var out []byte
	for i, row := range rows {
		out = append(out, byte(len(row)))
		for _, c := range row {
			out = append(out, byte(c+8))
		}
		out = append(out, errs[i])
	}
	return out
}

// fuzzSeed encodes rows of raw ids with their error bytes, the parameter
// bytes of a corruption, then one Eval call per candidate size, in
// FuzzServiceLoad's byte layout.
func fuzzSeed(rows [][]int, errs, params []byte, cands [][]int) []byte {
	out := append(fuzzRows(rows, errs), params...)
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
		out = append(append(out, byte(level-1), byte(n)), ids...)
	}
	return out
}

// decodePartition reads a partition from the fuzz bytes. Per row: a count
// byte (0–4 ids), the id bytes, then an error byte. Ids are strictly
// ascending in [0, cols) unless mode has fuzzRawIDs.
func decodePartition(in *fuzzBytes, rows, cols int, mode uint8) (rowPtr, colIdx []int, e []float64) {
	rowPtr, e = make([]int, rows+1), make([]float64, rows)
	for i := 0; i < rows; i++ {
		c := -1
		for n := in.next() % 5; n > 0; n-- {
			b := int(in.next())
			if mode&fuzzRawIDs != 0 {
				colIdx = append(colIdx, b-8)
				continue
			}
			if c += 1 + b%(cols/4+1); c < cols {
				colIdx = append(colIdx, c)
			}
		}
		rowPtr[i+1] = len(colIdx)
		if b := in.next(); mode&fuzzBinaryErrs != 0 {
			e[i] = float64(b & 1)
		} else {
			e[i] = float64(b) / 8
		}
	}
	return rowPtr, colIdx, e
}

// packWords packs the ids of each row that lie in [0, cols) into the
// ColumnBits layout, as little-endian bytes.
func packWords(rows, cols int, rowPtr, colIdx []int) []byte {
	per := (rows + 63) / 64
	words := make([]uint64, cols*per)
	for i := 0; i < rows; i++ {
		for _, c := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			if c >= 0 && c < cols {
				words[c*per+i/64] |= 1 << uint(i%64)
			}
		}
	}
	var out []byte
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// packLayout packs like packWords, but in the kernel's binary layout: the
// rows with error 1 first, in ascending row order, then the rest. It returns
// the words and the erring-row count.
func packLayout(rows, cols int, rowPtr, colIdx []int, e []float64) ([]byte, int) {
	var order []int
	for _, erred := range []bool{true, false} {
		for i := 0; i < rows; i++ {
			if (e[i] == 1) == erred {
				order = append(order, i)
			}
		}
	}
	errRows := 0
	lptr, lids := []int{0}, []int(nil)
	for _, i := range order {
		if e[i] == 1 {
			errRows++
		}
		lids = append(lids, colIdx[rowPtr[i]:rowPtr[i+1]]...)
		lptr = append(lptr, len(lids))
	}
	return packWords(rows, cols, lptr, lids), errRows
}

// corruptLoad applies corruption code fault (0 leaves the message intact)
// to a Load message, reading its parameters from the fuzz bytes.
func corruptLoad(in *fuzzBytes, a *LoadArgs, fault uint8) {
	// payload picks the buffer an element-level fault hits, and its width.
	// It reads its byte on either payload, so seeds keep one layout.
	payload := func() (*[]byte, int) {
		pick := in.next()
		switch {
		case len(a.Bits) > 0:
			return &a.Bits, 8
		case pick%2 == 0:
			return &a.RowPtr32, 4
		default:
			return &a.ColIdx32, 4
		}
	}
	switch fault % loadFaults {
	case 1: // shift one CSR row pointer
		if len(a.RowPtr32) >= 4 {
			i := int(in.next()) % (len(a.RowPtr32) / 4)
			v := int32(binary.LittleEndian.Uint32(a.RowPtr32[4*i:])) + int32(int8(in.next()))
			binary.LittleEndian.PutUint32(a.RowPtr32[4*i:], uint32(v))
		}
	case 2: // a non-finite or negative error
		if len(a.Err) > 0 {
			a.Err[int(in.next())%len(a.Err)] = []float64{math.NaN(), math.Inf(1), -1, -0.5}[in.next()%4]
		}
	case 3: // a word, id or error count off by one
		ids, width := payload()
		switch in.next() % 3 {
		case 0:
			if len(*ids) >= width {
				*ids = (*ids)[:len(*ids)-width]
			}
		case 1:
			*ids = append(*ids, make([]byte, width)...)
		default:
			if len(a.Err) > 0 {
				a.Err = a.Err[:len(a.Err)-1]
			}
		}
	case 4: // a row count that disagrees with the buffers
		a.Rows += int(int8(in.next()))
	case 5: // a column count the ids may exceed, or the words disagree with
		a.Cols = int(in.next())
	case 6: // a byte length that is not a multiple of the element width
		ids, width := payload()
		if n := 1 + int(in.next())%(width-1); len(*ids) >= n && in.next()%2 == 0 {
			*ids = (*ids)[:len(*ids)-n]
		} else {
			*ids = append(*ids, make([]byte, n)...)
		}
	case 7: // a set bit past the last row
		if len(a.Bits) > 0 && a.Rows%64 != 0 {
			per := (a.Rows + 63) / 64
			c := int(in.next()) % a.Cols
			bit := a.Rows%64 + int(in.next())%(64-a.Rows%64)
			a.Bits[8*((c+1)*per-1)+bit/8] |= 1 << uint(bit%8)
		}
	case 8: // a column id >= Cols
		if len(a.ColIdx32) >= 4 {
			i := int(in.next()) % (len(a.ColIdx32) / 4)
			binary.LittleEndian.PutUint32(a.ColIdx32[4*i:], uint32(a.Cols+int(in.next())))
		}
	case 9: // descending column ids: swap two neighbours
		if len(a.ColIdx32) >= 8 {
			i := int(in.next()) % (len(a.ColIdx32)/4 - 1)
			x, y := a.ColIdx32[4*i:4*i+4], a.ColIdx32[4*i+4:4*i+8]
			var tmp [4]byte
			copy(tmp[:], x)
			copy(x, y)
			copy(y, tmp[:])
		}
	case 10: // a wrong wire version
		a.Version = []int{0, wireVersion - 1, wireVersion + 1, -1}[in.next()%4]
	case 11: // both payloads
		if len(a.Bits) > 0 {
			a.RowPtr32 = appendInt32s(nil, make([]int, a.Rows+1))
		} else {
			a.Bits = make([]byte, 8*a.Cols*((a.Rows+63)/64))
		}
	case 12: // an erring-row count outside [0, Rows]
		if a.Binary {
			a.ErrRows = []int{-1, a.Rows + 1, a.Rows + 1 + int(in.next()), math.MinInt}[in.next()%4]
		}
	case 13: // a binary layout that also carries errors or CSR ids
		if a.Binary {
			switch in.next() % 3 {
			case 0:
				a.Err = make([]float64, a.Rows)
			case 1:
				a.RowPtr32 = appendInt32s(nil, make([]int, a.Rows+1))
			default:
				a.ColIdx32 = appendInt32s(nil, []int{0})
			}
		}
	}
}

// bruteForceEval counts the rows of a held partition that hold every id of
// cand, in ascending row order, with unit weights: (size, error sum, max
// error). It reads whichever payload the partition was shipped with; in a
// binary layout the first ErrRows rows have error 1 and the rest error 0.
func bruteForceEval(a *LoadArgs, cand []int) (ss, se, sm float64) {
	per := (a.Rows + 63) / 64
	rowPtr, colIdx := int32s(a.RowPtr32), int32s(a.ColIdx32)
	holds := func(i, c int) bool {
		if len(a.Bits) > 0 {
			w := binary.LittleEndian.Uint64(a.Bits[8*(c*per+i/64):])
			return w&(1<<uint(i%64)) != 0
		}
		for _, r := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			if r == c {
				return true
			}
		}
		return false
	}
	errAt := func(i int) float64 {
		if a.Binary {
			return float64(min(1, max(0, a.ErrRows-i)))
		}
		return a.Err[i]
	}
	for i := 0; i < a.Rows; i++ {
		all := true
		for _, c := range cand {
			all = all && holds(i, c)
		}
		if all {
			ss++
			se += errAt(i)
			if errAt(i) > sm {
				sm = errAt(i)
			}
		}
	}
	return ss, se, sm
}

// checkBruteForce requires every candidate's reply statistics to equal
// bruteForceEval's bits.
func checkBruteForce(t *testing.T, a *LoadArgs, cands [][]int, reply EvalReply) {
	t.Helper()
	if len(reply.SS) != len(cands) || len(reply.SE) != len(cands) || len(reply.SM) != len(cands) {
		t.Fatalf("%d candidates got %d/%d/%d statistics", len(cands), len(reply.SS), len(reply.SE), len(reply.SM))
	}
	for s, cand := range cands {
		ss, se, sm := bruteForceEval(a, cand)
		got := [3]float64{reply.SS[s], reply.SE[s], reply.SM[s]}
		want := [3]float64{ss, se, sm}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("candidate %v on %d×%d partition (packed %v): (ss, se, sm) = %v, brute force %v",
					cand, a.Rows, a.Cols, len(a.Bits) > 0, got, want)
			}
		}
	}
}
