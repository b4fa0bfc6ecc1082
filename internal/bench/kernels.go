package bench

import (
	"math/rand"
	"runtime"
	"testing"

	"sliceline/internal/benchfmt"
	"sliceline/internal/core"
	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// This file measures the eval-kernel benchmark suite behind the committed
// BENCH_<date>.json artifact (slbench -bench-out) and the CI regression gate
// (cmd/slbenchdiff). The gated kernel benchmarks run single-threaded
// (matrix.SetMaxWorkers(1)): allocs/op must not depend on the runner's core
// count, and single-threaded ns/op is far less noisy on shared CI machines.
// End-to-end runs are measured by cmd/slperf, not here.

// kernelWorkload is the fixed workload of the gated kernel benchmarks: the
// quick-scale dataset of the core package's eval benchmarks (2000 rows, 6
// features, domains up to 5) with its full cross-feature candidate lists.
type kernelWorkload struct {
	ds      *frame.Dataset
	x       *matrix.CSR
	e, w    []float64
	pairs   []int32 // all level-2 cross-feature column pairs, as one arena
	triples []int32 // all level-3 cross-feature column triples, as one arena
	packed  *matrix.ColumnBits
}

// newKernelWorkload generates the workload. The seed fixes the dataset, so
// baseline and candidate gate runs measure identical inputs.
func newKernelWorkload(seed int64) (*kernelWorkload, error) {
	const (
		n      = 2000
		m      = 6
		maxDom = 5
	)
	rng := rand.New(rand.NewSource(seed))
	ds := &frame.Dataset{
		Name:     "kernel-bench",
		X0:       frame.NewIntMatrix(n, m),
		Features: make([]frame.Feature, m),
	}
	for j := 0; j < m; j++ {
		dom := 2 + rng.Intn(maxDom-1)
		ds.Features[j] = frame.Feature{Name: string(rune('a' + j)), Domain: dom}
		for i := 0; i < n; i++ {
			ds.X0.Set(i, j, 1+rng.Intn(dom))
		}
	}
	e := make([]float64, n)
	for i := range e {
		if rng.Float64() < 0.3 {
			e[i] = 0
		} else {
			e[i] = rng.Float64()
		}
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		return nil, err
	}
	wl := &kernelWorkload{ds: ds, x: enc.X, e: e, w: make([]float64, n)}
	for i := range wl.w {
		wl.w[i] = 1 + float64(i%3)
	}
	width := enc.Width()
	for c1 := 0; c1 < width; c1++ {
		for c2 := c1 + 1; c2 < width; c2++ {
			if enc.FeatureOf(c1) == enc.FeatureOf(c2) {
				continue
			}
			wl.pairs = append(wl.pairs, int32(c1), int32(c2))
			for c3 := c2 + 1; c3 < width; c3++ {
				if enc.FeatureOf(c3) == enc.FeatureOf(c1) || enc.FeatureOf(c3) == enc.FeatureOf(c2) {
					continue
				}
				wl.triples = append(wl.triples, int32(c1), int32(c2), int32(c3))
			}
		}
	}
	return wl, nil
}

// kernelCase is one gated benchmark: a name, the level-L candidate arena
// and the op it measures.
type kernelCase struct {
	name string
	ids  []int32
	L    int
	run  func(wl *kernelWorkload, ids []int32, L int, ss, se, sm []float64)
}

func csrOp(wl *kernelWorkload, ids []int32, L int, ss, se, sm []float64) {
	core.EvalPartitionWeighted(wl.x, wl.e, nil, ids, L, core.DefaultBlockSize, ss, se, sm)
}

func bitsetOp(weighted bool) func(*kernelWorkload, []int32, int, []float64, []float64, []float64) {
	return func(wl *kernelWorkload, ids []int32, L int, ss, se, sm []float64) {
		w := wl.w
		if !weighted {
			w = nil
		}
		core.EvalBitsetSerial(wl.bits(), wl.e, w, ids, L, ss, se, sm)
	}
}

// bits lazily packs the workload's one-hot columns (outside the timed loop:
// every benchmark iteration measures the steady-state level loop, packing is
// a once-per-run setup cost).
func (wl *kernelWorkload) bits() *matrix.ColumnBits {
	if wl.packed == nil {
		wl.packed = matrix.PackColumns(wl.x)
	}
	return wl.packed
}

// KernelSuite measures the gated eval-kernel benchmarks and returns them as
// artifact entries. RowsPerSec is dataset rows scanned per second of
// benchmark time (rows × iterations / elapsed).
func KernelSuite(seed int64) ([]benchfmt.Benchmark, error) {
	wl, err := newKernelWorkload(seed)
	if err != nil {
		return nil, err
	}
	cases := []kernelCase{
		{name: "eval/csr/pairs-l2", ids: wl.pairs, L: 2, run: csrOp},
		{name: "eval/bitset/pairs-l2", ids: wl.pairs, L: 2, run: bitsetOp(false)},
		{name: "eval/csr/triples-l3", ids: wl.triples, L: 3, run: csrOp},
		{name: "eval/bitset/triples-l3", ids: wl.triples, L: 3, run: bitsetOp(false)},
		{name: "eval/bitset/weighted-pairs-l2", ids: wl.pairs, L: 2, run: bitsetOp(true)},
	}
	// Pin the measured region single-threaded and pre-pack the bitsets so
	// neither worker fan-out nor one-time setup leaks into any timed loop.
	old := matrix.SetMaxWorkers(1)
	defer matrix.SetMaxWorkers(old)
	wl.bits()
	out := make([]benchfmt.Benchmark, 0, len(cases))
	for _, kc := range cases {
		kc := kc
		n := len(kc.ids) / kc.L
		ss, se, sm := make([]float64, n), make([]float64, n), make([]float64, n)
		// Best of kernelRepeats runs: min ns/op is the standard
		// noise-robust statistic, and the gate compares two best-of-N
		// measurements, so scheduler hiccups on shared CI runners do not
		// masquerade as kernel regressions. Allocation counts are exact and
		// identical across repeats; the max is kept so a nondeterministic
		// allocation could never hide.
		var best benchfmt.Benchmark
		for rep := 0; rep < kernelRepeats; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for j := range ss {
						ss[j], se[j], sm[j] = 0, 0, 0
					}
					kc.run(wl, kc.ids, kc.L, ss, se, sm)
				}
			})
			ns := float64(r.NsPerOp())
			if rep == 0 || ns < best.NsPerOp {
				best.NsPerOp = ns
				best.RowsPerSec = rowsPerSec(wl.x.Rows(), r)
			}
			if a := r.AllocsPerOp(); a > best.AllocsPerOp {
				best.AllocsPerOp = a
			}
			if by := r.AllocedBytesPerOp(); by > best.BytesPerOp {
				best.BytesPerOp = by
			}
		}
		best.Name = kc.name
		best.Gate = true
		out = append(out, best)
	}
	return out, nil
}

// kernelRepeats is the best-of-N repeat count for gated measurements.
const kernelRepeats = 3

func rowsPerSec(rows int, r testing.BenchmarkResult) float64 {
	secs := r.T.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(rows) * float64(r.N) / secs
}

// MachineInfo describes the measuring machine for the artifact header.
func MachineInfo() benchfmt.Machine {
	return benchfmt.Machine{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}
