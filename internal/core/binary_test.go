package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// generalAndBinary returns the rowVals of (e, w) for the general loop and
// for the binary loop, packed as Kernel.Bits packs them.
func generalAndBinary(e, w []float64) (general, binary rowVals) {
	general = rowVals{e: e, w: w}
	binary = general
	binary.eb = packBinary(e)
	if w != nil {
		binary.wb = packBinary(w)
	}
	return general, binary
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

// checkBinaryMatchesGeneral evaluates cand over x with both loops: once over
// all rows from row 0, and once as the incremental memo does, continuing
// from row from with the seeds of a first pass over the rows [0, from). Every
// statistic must have the same bits in both loops, and the continuation must
// equal the full pass.
func checkBinaryMatchesGeneral(t testing.TB, x *matrix.CSR, e, w []float64, cand []int, from int) {
	t.Helper()
	cb := matrix.PackColumns(x)
	gen, bin := generalAndBinary(e, w)
	eval := func(cb *matrix.ColumnBits, r rowVals, from int, seed [3]float64) [3]float64 {
		ss, se, sm := evalBitsetFrom(cb, r, cand, from, seed[0], seed[1], seed[2])
		return [3]float64{ss, se, sm}
	}
	full := eval(cb, gen, 0, [3]float64{})
	if got := eval(cb, bin, 0, [3]float64{}); !sameBits(full, got) {
		t.Fatalf("cand %v (weighted %v): binary %v, general %v", cand, w != nil, got, full)
	}

	prefix := make([]int, from)
	for i := range prefix {
		prefix[i] = i
	}
	var pw []float64
	if w != nil {
		pw = w[:from]
	}
	pcb := matrix.PackColumns(x.SelectRows(prefix))
	pgen, pbin := generalAndBinary(e[:from], pw)
	seedG := eval(pcb, pgen, 0, [3]float64{})
	seedB := eval(pcb, pbin, 0, [3]float64{})
	if !sameBits(seedG, seedB) {
		t.Fatalf("cand %v rows [0,%d): binary seeds %v, general %v", cand, from, seedB, seedG)
	}
	contG := eval(cb, gen, from, seedG)
	contB := eval(cb, bin, from, seedB)
	if !sameBits(contG, contB) || !sameBits(contG, full) {
		t.Fatalf("cand %v from %d (weighted %v): binary continuation %v, general %v, full pass %v",
			cand, from, w != nil, contB, contG, full)
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
	sparse := matrix.CSRFromTriples(128, 128, []matrix.Triple{{Row: 0, Col: 0, Val: 1}})
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
		k.Eval(cols, level, 0, ssK, seK, smK)
		EvalBitsetWeighted(cb, e, w, cols, ssG, seG, smG)
		for j := range cols {
			if !sameBits([3]float64{ssK[j], seK[j], smK[j]}, [3]float64{ssG[j], seG[j], smG[j]}) {
				t.Fatalf("L%d cand %v (binary %v): kernel (%v, %v, %v), general (%v, %v, %v)",
					level, cols[j], k.Binary(), ssK[j], seK[j], smK[j], ssG[j], seG[j], smG[j])
			}
		}
	}
}

// FuzzBinaryKernel drives checkBinaryMatchesGeneral with fuzzed data: a 0/1
// matrix of up to 300 rows and 8 columns, 0/1 errors and optional 0/1
// weights drawn from the data bytes, a candidate of any width given as a
// column mask (more than three columns take the tiled loop), and any
// continuation row.
func FuzzBinaryKernel(f *testing.F) {
	f.Add(uint16(200), uint8(5), []byte{0x5a, 0xc3, 0x0f, 0xf0, 0x99}, uint8(0x03), uint16(65), false)
	f.Add(uint16(129), uint8(8), []byte{0xff, 0x01, 0x80, 0x7e}, uint8(0x1f), uint16(64), true)
	f.Add(uint16(63), uint8(1), []byte{0xaa}, uint8(0x01), uint16(0), true)
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
					ts = append(ts, matrix.Triple{Row: i, Col: j, Val: 1})
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
	})
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
			k.Eval(cols, 2, 0, o[0], o[1], o[2])
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
