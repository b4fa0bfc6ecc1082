// Package difftest is the differential correctness harness for SliceLine.
//
// SliceLine's headline claim is that the pruned, linear-algebra enumeration
// is an *exact* algorithm: every pruning rule (size, score upper bound,
// missing-parent) is result-preserving, and every execution plan — blocked
// evaluation at any block size with either local kernel, dense chunked
// evaluation, and row-partitioned distributed clusters over in-process or
// TCP workers — must return the same top-K slices. The local plans must
// return the same bits. This
// package turns that claim into a reusable test asset:
//
//   - Generate derives randomized categorical datasets, error vectors and
//     optional row weights deterministically from a seed.
//   - Plans enumerates named execution backends that all evaluate the same
//     enumeration (see plans.go).
//   - CompareResults / CompareToBruteForce assert agreement between plans,
//     and against exhaustive lattice enumeration on small instances, within
//     the principled ULP tolerance of package fptol (plans sum slice errors
//     in different orders, so last-ULP wobble is expected; anything larger
//     is a bug). CompareExact asserts bit-identity where plans promise it.
//   - Shrink minimizes a failing case while preserving its failure, and
//     ReproLine prints the one-line reproducer for a failing seed.
//
// Every future perf PR that touches the evaluation kernels or the
// enumeration is expected to keep this harness green.
package difftest

import (
	"fmt"

	"sliceline/internal/core"
	"sliceline/internal/datagen"
	"sliceline/internal/frame"
)

// Case is one differential test case: a dataset, an aligned error vector,
// optional row weights, and the SliceLine configuration to run it under.
type Case struct {
	Seed int64
	DS   *frame.Dataset
	E    []float64
	W    []float64 // nil = unweighted
	Cfg  core.Config
}

// Clone deep-copies the case so shrinking can mutate candidates freely.
func (c *Case) Clone() *Case {
	out := &Case{Seed: c.Seed, Cfg: c.Cfg}
	out.DS = &frame.Dataset{
		Name:     c.DS.Name,
		X0:       c.DS.X0.Clone(),
		Features: append([]frame.Feature(nil), c.DS.Features...),
	}
	if c.DS.Y != nil {
		out.DS.Y = append([]float64(nil), c.DS.Y...)
	}
	out.E = append([]float64(nil), c.E...)
	if c.W != nil {
		out.W = append([]float64(nil), c.W...)
	}
	return out
}

// ReproLine formats the one-line reproducer for a failing seed: re-running
// the named test with -seed pins the sweep to exactly this case.
func ReproLine(testName string, seed int64) string {
	return fmt.Sprintf("reproduce: go test ./internal/difftest -run %s -seed=%d", testName, seed)
}

// Seeds returns the seed sweep for a differential test: seeds 1..n, unless
// the -seed flag (registered via datagen.RegisterSeedFlag) pins a single
// seed, in which case only that one runs.
func Seeds(n int) []int64 {
	if s, ok := datagen.SeedOverride(); ok {
		return []int64{s}
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// Shrink greedily minimizes a failing case while fails(c) stays true,
// trying progressively smaller row prefixes, dropped features, and smaller
// K / MaxLevel. It never mutates the input case and returns the smallest
// still-failing variant found (possibly the input itself). fails must be
// pure — it is invoked many times.
func Shrink(c *Case, fails func(*Case) bool) *Case {
	best := c
	improved := true
	for improved {
		improved = false
		// Rows: binary-search style prefix truncation.
		n := best.DS.NumRows()
		for _, keep := range []int{n / 2, (3 * n) / 4, n - 1} {
			if keep < 1 || keep >= n {
				continue
			}
			if cand := truncateRows(best, keep); fails(cand) {
				best = cand
				improved = true
				break
			}
		}
		// Features: drop one at a time (only when >= 2 remain).
		for j := 0; j < best.DS.NumFeatures() && best.DS.NumFeatures() > 1; j++ {
			if cand := dropFeature(best, j); fails(cand) {
				best = cand
				improved = true
				break
			}
		}
		// Config: smaller K, tighter level cap.
		if best.Cfg.K > 1 {
			cand := best.Clone()
			cand.Cfg.K = best.Cfg.K - 1
			if fails(cand) {
				best = cand
				improved = true
			}
		}
		if best.Cfg.MaxLevel == 0 || best.Cfg.MaxLevel > 2 {
			cand := best.Clone()
			if cand.Cfg.MaxLevel == 0 {
				cand.Cfg.MaxLevel = best.DS.NumFeatures()
			}
			cand.Cfg.MaxLevel--
			if cand.Cfg.MaxLevel >= 1 && fails(cand) {
				best = cand
				improved = true
			}
		}
	}
	return best
}

func truncateRows(c *Case, keep int) *Case {
	out := c.Clone()
	m := out.DS.NumFeatures()
	out.DS.X0 = &frame.IntMatrix{Rows: keep, Cols: m, Data: out.DS.X0.Data[:keep*m]}
	if out.DS.Y != nil {
		out.DS.Y = out.DS.Y[:keep]
	}
	out.E = out.E[:keep]
	if out.W != nil {
		out.W = out.W[:keep]
	}
	return out
}

func dropFeature(c *Case, j int) *Case {
	out := c.Clone()
	n, m := out.DS.NumRows(), out.DS.NumFeatures()
	x := frame.NewIntMatrix(n, m-1)
	for i := 0; i < n; i++ {
		src := out.DS.X0.Row(i)
		dst := x.Row(i)
		copy(dst, src[:j])
		copy(dst[j:], src[j+1:])
	}
	out.DS.X0 = x
	out.DS.Features = append(out.DS.Features[:j], out.DS.Features[j+1:]...)
	return out
}
