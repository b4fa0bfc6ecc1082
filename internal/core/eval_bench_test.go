package core

import (
	"math/rand"
	"testing"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// benchEvalData builds a one-hot encoded random dataset plus the candidate
// list at the requested level — all cross-feature column pairs at level 2,
// all cross-feature triples at level 3 — the workload of the hottest
// enumeration levels. It also sizes the benchmark via b.SetBytes(rows) so
// `go test -bench` reports throughput in rows/s (as MB/s with 1 byte = 1 row).
func benchEvalData(b *testing.B, n, m, maxDom, level int) (*matrix.CSR, []float64, [][]int) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	ds, e := randomDataset(rng, n, m, maxDom)
	enc, err := frame.OneHot(ds)
	if err != nil {
		b.Fatal(err)
	}
	var cols [][]int
	for c1 := 0; c1 < enc.Width(); c1++ {
		for c2 := c1 + 1; c2 < enc.Width(); c2++ {
			if enc.FeatureOf(c1) == enc.FeatureOf(c2) {
				continue
			}
			if level == 2 {
				cols = append(cols, []int{c1, c2})
				continue
			}
			for c3 := c2 + 1; c3 < enc.Width(); c3++ {
				if enc.FeatureOf(c3) != enc.FeatureOf(c1) && enc.FeatureOf(c3) != enc.FeatureOf(c2) {
					cols = append(cols, []int{c1, c2, c3})
				}
			}
		}
	}
	b.SetBytes(int64(n))
	return enc.X, e, cols
}

func benchWeights(e []float64, weighted bool) []float64 {
	if !weighted {
		return nil
	}
	w := make([]float64, len(e))
	for i := range w {
		w[i] = 1 + float64(i%3)
	}
	return w
}

// benchEvalPartition drives the fused sparse kernel at one block size. The
// allocation report guards the kernel's steady-state footprint: the block
// index and partial vectors are the only expected allocations, and a
// regression here multiplies across every level of every run.
func benchEvalPartition(b *testing.B, blockSize, level int, weighted bool) {
	x, e, cols := benchEvalData(b, 2000, 6, 5, level)
	ids := ids32(cols...)
	w := benchWeights(e, weighted)
	ss := make([]float64, len(cols))
	se := make([]float64, len(cols))
	sm := make([]float64, len(cols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ss {
			ss[j], se[j], sm[j] = 0, 0, 0
		}
		EvalPartitionWeighted(x, e, w, ids, level, blockSize, ss, se, sm)
	}
}

func BenchmarkEvalPartitionBlock1(b *testing.B)   { benchEvalPartition(b, 1, 2, false) }
func BenchmarkEvalPartitionBlock16(b *testing.B)  { benchEvalPartition(b, 16, 2, false) }
func BenchmarkEvalPartitionBlockAll(b *testing.B) { benchEvalPartition(b, 1<<30, 2, false) }
func BenchmarkEvalPartitionWeighted(b *testing.B) { benchEvalPartition(b, 16, 2, true) }
func BenchmarkEvalPartitionTriplesL3(b *testing.B) {
	benchEvalPartition(b, 16, 3, false)
}

// benchEvalBitset drives the packed-bitset kernel over the same candidate
// lists. Packing happens once outside the timed loop, matching how the
// Kernel caches its ColumnBits across levels of a run.
func benchEvalBitset(b *testing.B, level int, weighted bool) {
	x, e, cols := benchEvalData(b, 2000, 6, 5, level)
	ids := ids32(cols...)
	w := benchWeights(e, weighted)
	cb := matrix.PackColumns(x)
	ss := make([]float64, len(cols))
	se := make([]float64, len(cols))
	sm := make([]float64, len(cols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ss {
			ss[j], se[j], sm[j] = 0, 0, 0
		}
		EvalBitsetSerial(cb, e, w, ids, level, ss, se, sm)
	}
}

func BenchmarkEvalBitsetPairsL2(b *testing.B)    { benchEvalBitset(b, 2, false) }
func BenchmarkEvalBitsetTriplesL3(b *testing.B)  { benchEvalBitset(b, 3, false) }
func BenchmarkEvalBitsetWeightedL2(b *testing.B) { benchEvalBitset(b, 2, true) }

// binaryErrors thresholds errors to 0/1 at 0.5, the shape of a classifier's
// 0/1 inaccuracy.
func binaryErrors(e []float64) []float64 {
	out := make([]float64, len(e))
	for i, v := range e {
		if v >= 0.5 {
			out[i] = 1
		}
	}
	return out
}

// benchEvalBitsetBinary drives the batch Kernel's binary loop over the
// general benchmarks' data and candidates, with errors thresholded to 0/1.
// Packing the binary layout happens once outside the timed loop, as in
// Kernel.Bits. Throughput is bytes of packed words read: per candidate,
// every word of each of its columns, once.
func benchEvalBitsetBinary(b *testing.B, level int) {
	x, e, cols := benchEvalData(b, 2000, 6, 5, level)
	ids := ids32(cols...)
	cb, errRows := packBinaryLayout(x, binaryErrors(e), nil)
	var read int64
	for _, c := range cols {
		read += int64(len(c)) * int64(cb.Words()) * 8
	}
	b.SetBytes(read)
	ss := make([]float64, len(cols))
	se := make([]float64, len(cols))
	sm := make([]float64, len(cols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ss {
			ss[j], se[j], sm[j] = 0, 0, 0
		}
		evalBinaryRange(cb, errRows, ids, len(cols[0]), 0, len(cols), ss, se, sm)
	}
}

func BenchmarkEvalBitsetBinaryL2(b *testing.B) { benchEvalBitsetBinary(b, 2) }
func BenchmarkEvalBitsetBinaryL3(b *testing.B) { benchEvalBitsetBinary(b, 3) }

// BenchmarkEvalMemoBinaryL2 drives the incremental memo's binary loop
// (binaryCounts over row-ordered columns and packed errors) over the same
// level-2 data and candidates, every candidate from row 0. Throughput is
// bytes of packed words read: per candidate, every word of each of its
// columns and of the errors.
func BenchmarkEvalMemoBinaryL2(b *testing.B) {
	x, e, cols := benchEvalData(b, 2000, 6, 5, 2)
	ids := ids32(cols...)
	cb := matrix.PackColumns(x)
	r := memoVals(binaryErrors(e))
	var read int64
	for _, c := range cols {
		read += int64(len(c)+1) * int64(cb.Words()) * 8
	}
	b.SetBytes(read)
	ss := make([]float64, len(cols))
	se := make([]float64, len(cols))
	sm := make([]float64, len(cols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ss {
			ss[j], se[j], sm[j] = 0, 0, 0
		}
		evalBitsetRange(cb, r, ids, 2, 0, len(cols), ss, se, sm)
	}
}

// TestEvalBitsetSerialZeroAlloc pins the bitset level loop's steady-state
// allocation count at exactly zero — the property the committed bench
// baseline gates in CI, asserted here so a plain `go test` catches it too.
func TestEvalBitsetSerialZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds, e := randomDataset(rng, 500, 5, 4)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][]int
	for c1 := 0; c1 < enc.Width(); c1++ {
		for c2 := c1 + 1; c2 < enc.Width(); c2++ {
			if enc.FeatureOf(c1) != enc.FeatureOf(c2) {
				pairs = append(pairs, []int{c1, c2})
			}
		}
	}
	cb := matrix.PackColumns(enc.X)
	ids := ids32(pairs...)
	ss := make([]float64, len(pairs))
	se := make([]float64, len(pairs))
	sm := make([]float64, len(pairs))
	for name, w := range map[string][]float64{
		"unweighted": nil,
		"weighted":   benchWeights(e, true),
	} {
		allocs := testing.AllocsPerRun(20, func() {
			EvalBitsetSerial(cb, e, w, ids, 2, ss, se, sm)
		})
		if allocs != 0 {
			t.Errorf("%s: EvalBitsetSerial allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// TestEvalBitsetBinaryZeroAlloc pins the binary layout's level loop,
// unweighted and with 0/1 weights, at zero allocations: the layout is packed
// once per Kernel, never per level.
func TestEvalBitsetBinaryZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds, e := randomDataset(rng, 500, 5, 4)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	var cols [][]int
	for c1 := 0; c1 < enc.Width(); c1++ {
		for c2 := c1 + 1; c2 < enc.Width(); c2++ {
			if enc.FeatureOf(c1) != enc.FeatureOf(c2) {
				cols = append(cols, []int{c1, c2})
			}
		}
	}
	ids := ids32(cols...)
	window := make([]float64, len(e))
	for i := 100; i < len(e); i++ {
		window[i] = 1 // rows below 100 retired, as in a sliding window
	}
	ss := make([]float64, len(cols))
	se := make([]float64, len(cols))
	sm := make([]float64, len(cols))
	for name, w := range map[string][]float64{"unweighted": nil, "weighted": window} {
		cb, errRows := packBinaryLayout(enc.X, binaryErrors(e), w)
		allocs := testing.AllocsPerRun(20, func() {
			evalBinaryRange(cb, errRows, ids, len(cols[0]), 0, len(cols), ss, se, sm)
		})
		if allocs != 0 {
			t.Errorf("%s: binary level loop allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// BenchmarkEvalRun measures a full enumeration through the built-in
// evaluation path (the bitset kernel on this dense workload).
func BenchmarkEvalRun(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ds, e := randomDataset(rng, 2000, 5, 4)
	cfg := Config{K: 4, Sigma: 20, Alpha: 0.95}
	b.SetBytes(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runDS(ds, e, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
