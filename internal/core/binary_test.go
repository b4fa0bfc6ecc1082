package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// memoVals returns the rowVals of 0/1 errors e for the incremental memo's
// binary loop, packed as Incremental.Run packs them.
func memoVals(e []float64) rowVals {
	return rowVals{e: e, eb: packBinary(e)}
}

// sameBits reports whether two statistics triples agree bit for bit.
func sameBits(a, b [3]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// layoutEval evaluates cand with the batch Kernel's binary loop over x packed
// in the binary layout.
func layoutEval(x *matrix.CSR, e, w []float64, cand []int) [3]float64 {
	cb, errRows := packBinaryLayout(x, e, w)
	var ss, se, sm [1]float64
	evalBinaryRange(cb, errRows, [][]int{cand}, 0, 1, ss[:], se[:], sm[:])
	return [3]float64{ss[0], se[0], sm[0]}
}

// checkBinaryMatchesGeneral evaluates cand over x with the general
// row-ordered loop and with both binary loops: the batch Kernel's loop over
// the binary layout, and — unweighted, as the incremental memo runs it —
// binaryCounts over row order, once over all rows from row 0 and once
// continuing from row from with the seeds of a first pass over the rows
// [0, from). Every statistic must have the same bits in every loop, and the
// continuation must equal the full pass.
func checkBinaryMatchesGeneral(t testing.TB, x *matrix.CSR, e, w []float64, cand []int, from int) {
	t.Helper()
	cb := matrix.PackColumns(x)
	eval := func(cb *matrix.ColumnBits, r rowVals, from int, seed [3]float64) [3]float64 {
		ss, se, sm := evalBitsetFrom(cb, r, cand, from, seed[0], seed[1], seed[2])
		return [3]float64{ss, se, sm}
	}
	full := eval(cb, rowVals{e: e, w: w}, 0, [3]float64{})
	if got := layoutEval(x, e, w, cand); !sameBits(full, got) {
		t.Fatalf("cand %v (weighted %v): binary layout %v, general %v", cand, w != nil, got, full)
	}
	if w != nil {
		return // the memo's loop is unweighted
	}
	if got := eval(cb, memoVals(e), 0, [3]float64{}); !sameBits(full, got) {
		t.Fatalf("cand %v: memo binary loop %v, general %v", cand, got, full)
	}

	pcb := matrix.PackColumns(x.RowRange(0, from))
	seedG := eval(pcb, rowVals{e: e[:from]}, 0, [3]float64{})
	seedB := eval(pcb, memoVals(e[:from]), 0, [3]float64{})
	if !sameBits(seedG, seedB) {
		t.Fatalf("cand %v rows [0,%d): binary seeds %v, general %v", cand, from, seedB, seedG)
	}
	contG := eval(cb, rowVals{e: e}, from, seedG)
	contB := eval(cb, memoVals(e), from, seedB)
	if !sameBits(contG, contB) || !sameBits(contG, full) {
		t.Fatalf("cand %v from %d: binary continuation %v, general %v, full pass %v",
			cand, from, contB, contG, full)
	}
}

// randomCandidate draws a candidate of the given width: one random column of
// each of width distinct features, in ascending column order.
func randomCandidate(rng *rand.Rand, enc *frame.Encoding, width int) []int {
	var cand []int
	for _, f := range rng.Perm(len(enc.Beg))[:width] {
		cand = append(cand, enc.Beg[f]+rng.Intn(enc.End[f]-enc.Beg[f]))
	}
	for i := 1; i < len(cand); i++ {
		for j := i; j > 0 && cand[j] < cand[j-1]; j-- {
			cand[j], cand[j-1] = cand[j-1], cand[j]
		}
	}
	return cand
}

// TestBinaryKernelMatchesGeneral pins the binary loop to the general loop bit
// for bit: random one-hot data over several words with a ragged tail,
// candidates of width 1–4, 0/1 errors (with −0 among the zeros, and the
// all-zero and all-one vectors), no weights or 0/1 weights with a retired
// prefix, and continuations from rows around the word boundaries. It also
// pins the selection: only 0/1 errors and weights on the bitset path take
// the binary loop, and a binary Kernel evaluates every level exactly like the
// general kernel.
func TestBinaryKernelMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		n := 130 + rng.Intn(200) // 3–6 words
		if n%64 == 0 {
			n++
		}
		ds, _ := randomDataset(rng, n, 5, 4)
		enc, err := frame.OneHot(ds)
		if err != nil {
			t.Fatal(err)
		}
		zero, one, mixed := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range mixed {
			one[i] = 1
			switch rng.Intn(3) {
			case 0:
				mixed[i] = 1
			case 1:
				mixed[i] = math.Copysign(0, -1)
			}
		}
		retire := rng.Intn(n / 2)
		window := make([]float64, n)
		for i := retire; i < n; i++ {
			if rng.Intn(8) != 0 {
				window[i] = 1
			}
		}
		froms := []int{0, 1, 63, 64, 65, rng.Intn(n)}
		for _, ev := range []struct {
			name string
			e    []float64
		}{{"zero", zero}, {"one", one}, {"mixed", mixed}} {
			e := ev.e
			for _, w := range [][]float64{nil, window} {
				for c := 0; c < 40; c++ {
					cand := randomCandidate(rng, enc, 1+c%4)
					for _, from := range froms {
						checkBinaryMatchesGeneral(t, enc.X, e, w, cand, from)
					}
				}
				if k := NewKernel(enc.X, e, w); !k.Binary() {
					t.Fatalf("trial %d errors %s (weighted %v): Binary() = false on 0/1 values", trial, ev.name, w != nil)
				}
				checkKernelMatchesGeneral(t, enc, e, w)
			}
		}

		// Anything else stays on the general loop and still matches it.
		half := append([]float64(nil), mixed...)
		half[rng.Intn(n)] = 0.5
		two := append([]float64(nil), mixed...)
		two[rng.Intn(n)] = 2
		heavy := append([]float64(nil), window...)
		heavy[n-1] = 2
		for _, tc := range []struct {
			name string
			e, w []float64
		}{
			{"error 0.5", half, nil},
			{"error 2", two, window},
			{"weight 2", mixed, heavy},
		} {
			if NewKernel(enc.X, tc.e, tc.w).Binary() {
				t.Fatalf("trial %d %s: Binary() = true", trial, tc.name)
			}
			checkKernelMatchesGeneral(t, enc, tc.e, tc.w)
		}
	}
	sparse := matrix.CSRFromTriples(128, 128, []matrix.Triple{{Row: 0, Col: 0}})
	if NewKernel(sparse, make([]float64, 128), nil).Binary() {
		t.Fatal("fused CSR kernel reported the binary loop")
	}
}

// checkKernelMatchesGeneral evaluates every cross-feature pair and triple
// through a Kernel and through the general bitset kernel, bit for bit.
func checkKernelMatchesGeneral(t *testing.T, enc *frame.Encoding, e, w []float64) {
	t.Helper()
	levels := map[int][][]int{}
	for c1 := 0; c1 < enc.Width(); c1++ {
		for c2 := c1 + 1; c2 < enc.Width(); c2++ {
			if enc.FeatureOf(c1) == enc.FeatureOf(c2) {
				continue
			}
			levels[2] = append(levels[2], []int{c1, c2})
			for c3 := c2 + 1; c3 < enc.Width(); c3++ {
				if enc.FeatureOf(c3) != enc.FeatureOf(c1) && enc.FeatureOf(c3) != enc.FeatureOf(c2) {
					levels[3] = append(levels[3], []int{c1, c2, c3})
				}
			}
		}
	}
	k := NewKernel(enc.X, e, w)
	cb := matrix.PackColumns(enc.X)
	for level, cols := range levels {
		n := len(cols)
		ssK, seK, smK := make([]float64, n), make([]float64, n), make([]float64, n)
		ssG, seG, smG := make([]float64, n), make([]float64, n), make([]float64, n)
		k.Eval(cols, level, ssK, seK, smK)
		EvalBitsetWeighted(cb, e, w, cols, ssG, seG, smG)
		for j := range cols {
			if !sameBits([3]float64{ssK[j], seK[j], smK[j]}, [3]float64{ssG[j], seG[j], smG[j]}) {
				t.Fatalf("L%d cand %v (binary %v): kernel (%v, %v, %v), general (%v, %v, %v)",
					level, cols[j], k.Binary(), ssK[j], seK[j], smK[j], ssG[j], seG[j], smG[j])
			}
		}
	}
}

// checkKernelEval evaluates cand through NewKernel(x, e, w).Eval — whichever
// path the density selects, the binary layout on dense 0/1 data — and, for
// an unweighted binary Kernel, through the Kernel a Dist-PFor worker builds
// from its shipped layout. Both must return the general loop's bits.
func checkKernelEval(t testing.TB, x *matrix.CSR, e, w []float64, cand []int) {
	t.Helper()
	var want [3]float64
	want[0], want[1], want[2] = evalBitsetFrom(matrix.PackColumns(x), rowVals{e: e, w: w}, cand, 0, 0, 0, 0)
	k := NewKernel(x, e, w)
	kernels := []*Kernel{k}
	if k.Binary() && w == nil {
		pk, err := NewPackedBinaryKernel(k.Bits(), k.ErrRows())
		if err != nil {
			t.Fatalf("rebuilding the shipped layout: %v", err)
		}
		kernels = append(kernels, pk)
	}
	for _, k := range kernels {
		var ss, se, sm [1]float64
		k.Eval([][]int{cand}, len(cand), ss[:], se[:], sm[:])
		if got := [3]float64{ss[0], se[0], sm[0]}; !sameBits(got, want) {
			t.Fatalf("cand %v (weighted %v, binary %v, packed %v): Kernel.Eval %v, general %v",
				cand, w != nil, k.Binary(), k.x == nil, got, want)
		}
	}
}

// binaryFuzzData lays out FuzzBinaryKernel's data bytes so that matrix
// bit (i, j) is x(i, j), error i is e(i) and weight i is w(i), with no byte
// shared between them.
func binaryFuzzData(rows, cols int, x func(i, j int) bool, e, w func(i int) bool) []byte {
	data := make([]byte, (rows*cols+3*rows+7)/8)
	set := func(b int) { data[b/8] |= 1 << (b % 8) }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if x(i, j) {
				set(i*cols + j)
			}
		}
		if e(i) {
			set(rows*cols + 3*i)
		}
		if !w(i) {
			set(rows*cols + 3*i + 1)
		}
	}
	return data
}

// FuzzBinaryKernel drives checkBinaryMatchesGeneral and checkKernelEval with
// fuzzed data: a 0/1 matrix of up to 300 rows and 8 columns, 0/1 errors and
// optional 0/1 weights drawn from the data bytes, a candidate of any width
// given as a column mask (more than three columns take the tiled loop), and
// any continuation row. Seeds include an empty erring block (no row erred)
// and an empty other block (every row of weight 1 erred).
func FuzzBinaryKernel(f *testing.F) {
	f.Add(uint16(200), uint8(5), []byte{0x5a, 0xc3, 0x0f, 0xf0, 0x99}, uint8(0x03), uint16(65), false)
	f.Add(uint16(129), uint8(8), []byte{0xff, 0x01, 0x80, 0x7e}, uint8(0x1f), uint16(64), true)
	f.Add(uint16(63), uint8(1), []byte{0xaa}, uint8(0x01), uint16(0), true)
	dense := func(i, j int) bool { return (i+j)%3 != 0 }
	never := func(int) bool { return false }
	always := func(int) bool { return true }
	f.Add(uint16(130), uint8(4), binaryFuzzData(130, 4, dense, never, always), uint8(0x0f), uint16(64), false)
	f.Add(uint16(130), uint8(4), binaryFuzzData(130, 4, dense, always, always), uint8(0x07), uint16(65), false)
	f.Add(uint16(130), uint8(4), binaryFuzzData(130, 4, dense, always, func(i int) bool { return i%5 != 0 }), uint8(0x03), uint16(1), true)
	f.Fuzz(func(t *testing.T, rows16 uint16, cols8 uint8, data []byte, candMask uint8, from16 uint16, weighted bool) {
		if len(data) == 0 {
			return
		}
		rows, cols := 1+int(rows16)%300, 1+int(cols8)%8
		bit := func(i int) bool { return data[(i/8)%len(data)]>>(i%8)&1 == 1 }
		var ts []matrix.Triple
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if bit(i*cols + j) {
					ts = append(ts, matrix.Triple{Row: i, Col: j})
				}
			}
		}
		x := matrix.CSRFromTriples(rows, cols, ts)
		e := make([]float64, rows)
		var w []float64
		if weighted {
			w = make([]float64, rows)
		}
		for i := range e {
			if bit(rows*cols + 3*i) {
				e[i] = 1
			}
			if w != nil && !bit(rows*cols+3*i+1) {
				w[i] = 1
			}
		}
		var cand []int
		for j := 0; j < cols; j++ {
			if candMask>>j&1 == 1 {
				cand = append(cand, j)
			}
		}
		if len(cand) == 0 {
			return
		}
		checkBinaryMatchesGeneral(t, x, e, w, cand, int(from16)%(rows+1))
		checkKernelEval(t, x, e, w, cand)
	})
}

// TestBinaryLayoutMatchesGeneral pins a binary Kernel's Eval to the general
// bitset kernel and the fused CSR kernel bit for bit at levels 1–6 (levels 4
// and up take the tiled loop), around every word boundary the layout has:
// n ∈ {63, 64, 65, 127, 128, 129} rows, with 0, 1, 63, 64, 65 or all n rows
// erring, unweighted, with 0/1 window weights, and with a window that retires
// every row but one. 4200 rows span two 64-word tiles, with the erring block
// ending in the first tile, on the tile boundary and in the second tile.
func TestBinaryLayoutMatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{63, 64, 65, 127, 128, 129, 4200} {
		ds, _ := randomDataset(rng, n, 7, 3)
		enc, err := frame.OneHot(ds)
		if err != nil {
			t.Fatal(err)
		}
		// Candidates drawn from rows, so wide ones match rows too.
		levels := make([][][]int, 7)
		for L := 1; L <= 6; L++ {
			for c := 0; c < 25; c++ {
				row := enc.X.RowEntries(rng.Intn(n))
				var cand []int
				for _, f := range rng.Perm(len(row))[:L] {
					cand = append(cand, row[f])
				}
				sort.Ints(cand)
				levels[L] = append(levels[L], cand)
			}
		}
		window := make([]float64, n)
		for i := rng.Intn(n / 2); i < n; i++ {
			if rng.Intn(6) != 0 {
				window[i] = 1
			}
		}
		lastOnly := make([]float64, n)
		lastOnly[rng.Intn(n)] = 1
		nErrs := []int{0, 1, 63, 64, 65, n}
		if n > 4096 {
			nErrs = []int{100, 4096, 4150}
		}
		for _, nErr := range nErrs {
			if nErr > n {
				continue
			}
			e := make([]float64, n)
			for i := range e {
				if rng.Intn(4) == 0 {
					e[i] = math.Copysign(0, -1)
				}
			}
			for _, i := range rng.Perm(n)[:nErr] {
				e[i] = 1
			}
			for wi, w := range [][]float64{nil, window, lastOnly} {
				k := NewKernel(enc.X, e, w)
				wantErr := 0
				for i, ei := range e {
					if ei == 1 && (w == nil || w[i] == 1) {
						wantErr++
					}
				}
				if !k.Binary() || k.ErrRows() != wantErr {
					t.Fatalf("n %d, %d erring, weights %d: Binary() %v, ErrRows() %d, want true and %d", n, nErr, wi, k.Binary(), k.ErrRows(), wantErr)
				}
				cb := matrix.PackColumns(enc.X)
				for L := 1; L <= 6; L++ {
					cols := levels[L]
					m := len(cols)
					var got, bitset, fused [3][]float64
					for _, out := range []*[3][]float64{&got, &bitset, &fused} {
						*out = [3][]float64{make([]float64, m), make([]float64, m), make([]float64, m)}
					}
					k.Eval(cols, L, got[0], got[1], got[2])
					EvalBitsetWeighted(cb, e, w, cols, bitset[0], bitset[1], bitset[2])
					EvalPartitionWeighted(enc.X, e, w, cols, L, 0, fused[0], fused[1], fused[2])
					for s := range cols {
						g := [3]float64{got[0][s], got[1][s], got[2][s]}
						b := [3]float64{bitset[0][s], bitset[1][s], bitset[2][s]}
						f := [3]float64{fused[0][s], fused[1][s], fused[2][s]}
						if !sameBits(g, b) || !sameBits(g, f) {
							t.Fatalf("n %d, %d erring, weights %d, L%d cand %v: binary layout %v, bitset %v, fused %v",
								n, nErr, wi, L, cols[s], g, b, f)
						}
					}
				}
			}
		}
	}
}

// TestBinaryKernelPacksOnlyColumns: a binary Kernel holds its columns in the
// binary layout and nothing beside them — no packed error or weight vector —
// and the layout is no larger than the row-ordered packing: ⌈rows/64⌉ words
// per column over the rows of weight 1.
func TestBinaryKernelPacksOnlyColumns(t *testing.T) {
	kt := reflect.TypeOf(Kernel{})
	for i := 0; i < kt.NumField(); i++ {
		if f := kt.Field(i); f.Type == reflect.TypeOf([]uint64(nil)) {
			t.Errorf("Kernel field %s holds packed words beside its columns", f.Name)
		}
	}
	rng := rand.New(rand.NewSource(47))
	ds, cont := randomDataset(rng, 300, 4, 3)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	window := make([]float64, 300)
	for i := 100; i < 300; i++ {
		window[i] = 1
	}
	for _, tc := range []struct {
		w    []float64
		rows int
	}{{nil, 300}, {window, 200}} {
		k := NewKernel(enc.X, binaryErrors(cont), tc.w)
		cb := k.Bits()
		if !k.Binary() || cb.Rows() != tc.rows || cb.Cols() != enc.X.Cols() || cb.Words() != (tc.rows+63)/64 {
			t.Errorf("weighted %v: binary %v, layout %d rows × %d columns of %d words, want %d × %d of %d",
				tc.w != nil, k.Binary(), cb.Rows(), cb.Cols(), cb.Words(), tc.rows, enc.X.Cols(), (tc.rows+63)/64)
		}
		if k.Rows() != 300 {
			t.Errorf("weighted %v: Rows() = %d, want the partition's 300", tc.w != nil, k.Rows())
		}
	}
}

// TestEvalSpanReportsBinary: the core.eval span carries a binary attribute
// saying which bitset loop ran — 1 with 0/1 errors, 0 with continuous ones —
// for the built-in kernel and for the incremental memo alike.
func TestEvalSpanReportsBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds, cont := randomDataset(rng, 400, 4, 3)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    []float64
		want int64
	}{
		{"0/1 errors", binaryErrors(cont), 1},
		{"continuous errors", cont, 0},
	} {
		for _, path := range []string{"kernel", "memo"} {
			tr := obs.NewJSONTracer()
			cfg := Config{K: 4, Sigma: 8, MaxLevel: 2, Tracer: tr}
			if path == "kernel" {
				_, err = Run(context.Background(), enc, ds.Features, tc.e, nil, cfg)
			} else {
				var inc *Incremental
				if inc, err = NewIncremental(cfg); err == nil {
					_, err = inc.Run(context.Background(), enc, ds.Features, tc.e)
				}
			}
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, path, err)
			}
			evals := 0
			for _, sp := range tr.Spans() {
				if sp.Name != "core.eval" {
					continue
				}
				evals++
				if got := sp.AttrInt("binary", -1); got != tc.want {
					t.Errorf("%s, %s: core.eval binary = %d, want %d", tc.name, path, got, tc.want)
				}
			}
			if evals == 0 {
				t.Fatalf("%s, %s: no core.eval span", tc.name, path)
			}
		}
	}
}

// TestBinaryKernelConcurrentFirstEval: concurrent first Evals on one binary
// Kernel (dist workers serve hedged and parallel calls on a held partition)
// share one packing of the columns and the 0/1 words, and each returns the
// general loop's bits. Run it under -race.
func TestBinaryKernelConcurrentFirstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ds, cont := randomDataset(rng, 300, 4, 3)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	e := binaryErrors(cont)
	var cols [][]int
	for c1 := 0; c1 < enc.Width(); c1++ {
		for c2 := c1 + 1; c2 < enc.Width(); c2++ {
			if enc.FeatureOf(c1) != enc.FeatureOf(c2) {
				cols = append(cols, []int{c1, c2})
			}
		}
	}
	n := len(cols)
	ssG, seG, smG := make([]float64, n), make([]float64, n), make([]float64, n)
	EvalBitsetWeighted(matrix.PackColumns(enc.X), e, nil, cols, ssG, seG, smG)

	k := NewKernel(enc.X, e, nil)
	if !k.Binary() {
		t.Fatal("Binary() = false on 0/1 errors")
	}
	const callers = 4
	out := make([][3][]float64, callers)
	var wg sync.WaitGroup
	for g := range out {
		out[g] = [3][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
		wg.Add(1)
		go func(o [3][]float64) {
			defer wg.Done()
			k.Eval(cols, 2, o[0], o[1], o[2])
		}(out[g])
	}
	wg.Wait()
	for g, o := range out {
		for j := range cols {
			if !sameBits([3]float64{o[0][j], o[1][j], o[2][j]}, [3]float64{ssG[j], seG[j], smG[j]}) {
				t.Fatalf("caller %d cand %v: (%v, %v, %v), general (%v, %v, %v)",
					g, cols[j], o[0][j], o[1][j], o[2][j], ssG[j], seG[j], smG[j])
			}
		}
	}
}
