// Benchmarks regenerating each table and figure of the paper's evaluation
// at single-core-friendly scales. Run with:
//
//	go test -bench=. -benchmem
//
// The slbench command runs the same experiments with full reporting; the
// benchmarks here measure the end-to-end enumeration cost per artifact.
package sliceline_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"sliceline"
	"sliceline/datasets"
	"sliceline/internal/bench"
	"sliceline/internal/dist"
	"sliceline/internal/frame"
)

// cached dataset generation: benchmarks share inputs so iteration timing
// measures enumeration, not data synthesis.
var (
	genOnce  sync.Once
	adultG   *datasets.Generated
	salaries *datasets.Generated
	censusG  *datasets.Generated
	covtypeG *datasets.Generated
	kdd98G   *datasets.Generated
	criteoG  *datasets.Generated
)

func gen() {
	genOnce.Do(func() {
		adultG = truncateGen(datasets.Adult(1), 8000)
		s := datasets.Salaries(1)
		salaries = s.ReplicateCols(2).ReplicateRows(2)
		censusG = datasets.USCensus(6000, 1)
		covtypeG = datasets.Covtype(6000, 1)
		kdd98G = datasets.KDD98(1500, 1)
		criteoG = datasets.Criteo(30000, 1)
	})
}

func truncateGen(g *datasets.Generated, n int) *datasets.Generated {
	ds, _ := g.DS.Split(n)
	ds.Name = g.DS.Name
	return &datasets.Generated{DS: ds, Err: g.Err[:n], Task: g.Task}
}

func mustRun(b *testing.B, g *datasets.Generated, cfg sliceline.Config) *sliceline.Result {
	b.Helper()
	res, err := sliceline.RunContext(context.Background(), g.DS, g.Err, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Encode measures data preparation (the one-hot encoding of
// Algorithm 1 lines 1-5) per dataset — the dataset-characteristics baseline
// of Table 1.
func BenchmarkTable1Encode(b *testing.B) {
	gen()
	for _, g := range []*datasets.Generated{salaries, adultG, censusG, covtypeG, kdd98G} {
		b.Run(g.DS.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := frame.OneHot(g.DS); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3Pruning runs the five pruning-ablation configurations of
// Figure 3 on Salaries 2x2.
func BenchmarkFig3Pruning(b *testing.B) {
	gen()
	sigma := (salaries.DS.NumRows() + 99) / 100
	configs := []struct {
		name string
		cfg  sliceline.Config
	}{
		{"all-pruning", sliceline.Config{}},
		{"no-parents", sliceline.Config{DisableParentHandling: true}},
		{"no-parents-score", sliceline.Config{DisableParentHandling: true, DisableScorePruning: true}},
		{"no-parents-score-size", sliceline.Config{DisableParentHandling: true, DisableScorePruning: true, DisableSizePruning: true}},
		{"no-pruning-dedup", sliceline.Config{DisableParentHandling: true, DisableScorePruning: true, DisableSizePruning: true, DisableDedup: true, MaxCandidatesPerLevel: 200_000}},
	}
	for _, c := range configs {
		c.cfg.Alpha = 0.95
		c.cfg.Sigma = sigma
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, salaries, c.cfg)
			}
		})
	}
}

// BenchmarkFig4Adult enumerates Adult with unbounded level (Figure 4a).
func BenchmarkFig4Adult(b *testing.B) {
	gen()
	for i := 0; i < b.N; i++ {
		mustRun(b, adultG, sliceline.Config{Alpha: 0.95})
	}
}

// BenchmarkFig4Datasets enumerates the correlated/wide datasets with the
// paper's level caps (Figure 4b).
func BenchmarkFig4Datasets(b *testing.B) {
	gen()
	runs := []struct {
		g   *datasets.Generated
		cap int
	}{
		{kdd98G, 2},
		{censusG, 3},
		{covtypeG, 3},
	}
	for _, r := range runs {
		b.Run(r.g.DS.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, r.g, sliceline.Config{Alpha: 0.95, MaxLevel: r.cap})
			}
		})
	}
}

// BenchmarkFig5Alpha sweeps the weight parameter alpha (Figure 5).
func BenchmarkFig5Alpha(b *testing.B) {
	gen()
	for _, alpha := range []float64{0.36, 0.84, 0.96, 0.99} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, adultG, sliceline.Config{K: 10, Alpha: alpha, MaxLevel: 3})
			}
		})
	}
}

// BenchmarkSigmaSweep sweeps the minimum support constraint (Section 5.3).
func BenchmarkSigmaSweep(b *testing.B) {
	gen()
	n := adultG.DS.NumRows()
	for _, frac := range []float64{1e-3, 1e-2, 1e-1} {
		sigma := int(frac * float64(n))
		if sigma < 1 {
			sigma = 1
		}
		b.Run(fmt.Sprintf("sigma=%.0e", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, adultG, sliceline.Config{K: 10, Alpha: 0.95, Sigma: sigma, MaxLevel: 3})
			}
		})
	}
}

// BenchmarkFig6EndToEnd measures end-to-end runtime per dataset (Figure 6a).
func BenchmarkFig6EndToEnd(b *testing.B) {
	gen()
	runs := []struct {
		g   *datasets.Generated
		cap int
	}{
		{salaries, 3},
		{adultG, 3},
		{covtypeG, 3},
		{kdd98G, 2},
		{censusG, 3},
		{criteoG, 3},
	}
	for _, r := range runs {
		b.Run(r.g.DS.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, r.g, sliceline.Config{Alpha: 0.95, MaxLevel: r.cap})
			}
		})
	}
}

// BenchmarkFig6BlockSize sweeps the hybrid evaluation block size b
// (Figure 6b).
func BenchmarkFig6BlockSize(b *testing.B) {
	gen()
	for _, bs := range []int{1, 4, 16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("b=%d", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, adultG, sliceline.Config{Alpha: 0.95, MaxLevel: 3, BlockSize: bs})
			}
		})
	}
}

// BenchmarkFig7Rows scales USCensus row-wise (Figure 7a).
func BenchmarkFig7Rows(b *testing.B) {
	gen()
	base := datasets.USCensus(3000, 1)
	for _, f := range []int{1, 2, 4} {
		g := base.ReplicateRows(f)
		b.Run(fmt.Sprintf("x%d", f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, g, sliceline.Config{Alpha: 0.95, MaxLevel: 3})
			}
		})
	}
}

// BenchmarkFig7Strategies compares parallelization strategies (Figure 7b):
// MT-Ops (a barrier per block), MT-PFor (the built-in evaluation) and
// Dist-PFor over in-process row-partitioned workers.
func BenchmarkFig7Strategies(b *testing.B) {
	gen()
	// One shared block size isolates orchestration costs (see fig7b).
	const blockSize = 256
	b.Run("MT-Ops", func(b *testing.B) {
		cfg := sliceline.Config{Alpha: 0.95, MaxLevel: 3, Evaluator: &bench.BarrierEvaluator{BlockSize: blockSize}}
		for i := 0; i < b.N; i++ {
			mustRun(b, censusG, cfg)
		}
	})
	b.Run("MT-PFor", func(b *testing.B) {
		cfg := sliceline.Config{Alpha: 0.95, MaxLevel: 3, BlockSize: blockSize}
		for i := 0; i < b.N; i++ {
			mustRun(b, censusG, cfg)
		}
	})
	for _, nw := range []int{2, 4} {
		b.Run(fmt.Sprintf("Dist-PFor-%dw", nw), func(b *testing.B) {
			workers := make([]dist.Worker, nw)
			for i := range workers {
				workers[i] = &dist.InProcessWorker{}
			}
			cluster, err := dist.NewClusterOpts(workers, dist.Options{BlockSize: blockSize})
			if err != nil {
				b.Fatal(err)
			}
			cfg := sliceline.Config{Alpha: 0.95, MaxLevel: 3, Evaluator: cluster}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustRun(b, censusG, cfg)
			}
		})
	}
}

// BenchmarkTable2Criteo enumerates the ultra-sparse Criteo stand-in through
// level 6 (Table 2).
func BenchmarkTable2Criteo(b *testing.B) {
	gen()
	for i := 0; i < b.N; i++ {
		mustRun(b, criteoG, sliceline.Config{Alpha: 0.95, MaxLevel: 6})
	}
}

// BenchmarkMLSystemsComparison contrasts the fused sparse kernel with dense
// materialized intermediates (Section 5.4's kernel-quality point).
func BenchmarkMLSystemsComparison(b *testing.B) {
	gen()
	b.Run("fused-sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustRun(b, adultG, sliceline.Config{Alpha: 0.95, MaxLevel: 3})
		}
	})
	b.Run("dense-intermediates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustRun(b, adultG, sliceline.Config{Alpha: 0.95, MaxLevel: 3, Evaluator: &bench.DenseIntermediates{}})
		}
	})
}
