package difftest

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sliceline/internal/core"
	"sliceline/internal/obs"
)

// binaryOpts returns o drawing 0/1 errors.
func binaryOpts(o GenOpts) GenOpts {
	o.BinaryErrors = true
	return o
}

// TestDiffBinaryErrors is the plan sweep on 0/1 errors, where the built-in
// bitset kernel counts with its binary popcount loop. kernel/csr (the fused
// CSR kernel) and dense (the §5.4 program) compute the same statistics
// without it, and on integer counts every summation order is exact, so both
// must match builtin/auto bit for bit: they pin the binary loop to the
// general ones end to end. The kernel/csr/b=* plans and the Dist-PFor
// clusters, whose partition partials are integers too, must be
// bit-identical as well: integer counts make exact score ties common, and
// the top-K keeps the same member of a tie whatever order candidates arrive
// in. Tiny binary cases are checked against brute force, and outside -short the
// TCP plans run as well. The ablation rotates over every single-rule switch;
// the everything-off configuration only adds candidates, not kernel paths,
// and TestDiffBackendsAgree already sweeps it.
func TestDiffBinaryErrors(t *testing.T) {
	const testName = "TestDiffBinaryErrors"
	abl := ablations()
	abl = abl[:len(abl)-1]
	dist := ClusterPlans(1, 2, 4)
	if !testing.Short() {
		dist = append(dist, TCPPlans(1, 2)...)
	}
	for _, seed := range Seeds(seedCount(120, 12)) {
		c := Generate(seed, binaryOpts(Defaults))
		a := abl[int(seed)%len(abl)]
		a.apply(&c.Cfg)
		ref, err := BuiltinPlans()[0].Run(c)
		if err != nil {
			failf(t, testName, seed, "builtin (%s): %v", a.name, err)
			continue
		}
		if err := CheckInvariants(ref, c.DS.NumFeatures()); err != nil {
			failf(t, testName, seed, "builtin invariants (%s): %v", a.name, err)
		}
		for _, plan := range append(BuiltinPlans()[1:], dist...) {
			got, err := plan.Run(c)
			if err != nil {
				failf(t, testName, seed, "plan %s (%s): %v", plan.Name, a.name, err)
				continue
			}
			if err := CompareAnnotated(ref, got); err != nil {
				failf(t, testName, seed, "plan %s disagrees with builtin (%s): %v", plan.Name, a.name, err)
			}
		}
	}

	plans := bruteForcePlans()
	for _, seed := range Seeds(seedCount(120, 12)) {
		c := Generate(seed, binaryOpts(Tiny))
		a := abl[int(seed)%len(abl)]
		a.apply(&c.Cfg)
		truth, err := core.BruteForce(c.DS, c.E, c.Cfg)
		if err != nil {
			failf(t, testName, seed, "brute force: %v", err)
			continue
		}
		for _, plan := range plans {
			got, err := plan.Run(c)
			if err != nil {
				failf(t, testName, seed, "plan %s (%s): %v", plan.Name, a.name, err)
				continue
			}
			if err := CompareToBruteForce(got, truth, Tol); err != nil {
				failf(t, testName, seed, "plan %s vs brute force (%s): %v", plan.Name, a.name, err)
			}
		}
	}
}

// permuteRows returns a copy of the case whose rows (of X0, E and, when
// weighted, W) are shuffled by a permutation drawn from rng.
func permuteRows(c *Case, rng *rand.Rand) *Case {
	out := c.Clone()
	m := c.DS.X0.Cols
	for to, from := range rng.Perm(len(c.E)) {
		copy(out.DS.X0.Data[to*m:(to+1)*m], c.DS.X0.Data[from*m:(from+1)*m])
		out.E[to] = c.E[from]
		if c.W != nil {
			out.W[to] = c.W[from]
		}
	}
	return out
}

// TestDiffRowPermutationBinary: shuffling the rows changes nothing on 0/1
// errors. Every statistic is then an integer count (integer weights keep
// weighted sums integers too), which float64 adds exactly in any order, so
// the top-K with its p- and q-values, every level's counts, the gap, N, the
// average error and σ must be bit-identical. It checks builtin/auto on
// weighted and unweighted cases and cluster/inproc-2, whose partitions take
// different rows once shuffled, on unweighted ones. slperf's -seed model
// assumes this invariance.
func TestDiffRowPermutationBinary(t *testing.T) {
	const testName = "TestDiffRowPermutationBinary"
	builtin, cluster := BuiltinPlans()[0], ClusterPlans(2)[0]
	found := 0
	for _, seed := range Seeds(seedCount(60, 8)) {
		opts := binaryOpts(Defaults)
		opts.Weighted, opts.IntWeights = seed%3 == 0, true
		c := Generate(seed, opts)
		shuffled := permuteRows(c, rand.New(rand.NewSource(seed)))
		plans := []Plan{builtin}
		if c.W == nil {
			plans = append(plans, cluster)
		}
		for _, plan := range plans {
			want, err := plan.Run(c)
			if err != nil {
				failf(t, testName, seed, "plan %s: %v", plan.Name, err)
				continue
			}
			got, err := plan.Run(shuffled)
			if err != nil {
				failf(t, testName, seed, "plan %s on shuffled rows: %v", plan.Name, err)
				continue
			}
			found += len(want.TopK)
			if err := CompareAnnotated(want, got); err != nil {
				failf(t, testName, seed, "plan %s: shuffled rows change the top-K: %v", plan.Name, err)
			}
			if !reflect.DeepEqual(levelCounts(want), levelCounts(got)) {
				failf(t, testName, seed, "plan %s: shuffled rows change the level counts: %+v, want %+v",
					plan.Name, levelCounts(got), levelCounts(want))
			}
			if got.N != want.N || got.AvgError != want.AvgError || got.Sigma != want.Sigma {
				failf(t, testName, seed, "plan %s: shuffled rows give N %d, avg error %v, σ %d; want %d, %v, %d",
					plan.Name, got.N, got.AvgError, got.Sigma, want.N, want.AvgError, want.Sigma)
			}
		}
	}
	if found == 0 {
		t.Fatal("every top-K was empty: the sweep compares nothing")
	}
}

// drawBinary draws n 0/1 errors at the generator's base error rate.
func drawBinary(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < binaryBaseRate {
			out[i] = 1
		}
	}
	return out
}

// TestDiffStreamingGenerationsBinary is the streaming plan on 0/1 errors:
// the memo continues every candidate with the binary loop from the integer
// statistics of earlier generations, and at every generation — domain
// growth included — the maintained top-K and per-level counts must equal a
// frozen from-scratch run bit for bit. The eval spans must show that the memo
// took the binary loop.
func TestDiffStreamingGenerationsBinary(t *testing.T) {
	const testName = "TestDiffStreamingGenerationsBinary"
	ctx := context.Background()
	evals := 0
	for _, seed := range Seeds(seedCount(15, 4)) {
		sc := genStreamCase(t, seed)
		sc.e = drawBinary(sc.rng, len(sc.e))
		tr := obs.NewJSONTracer()
		cfg := sc.cfg
		cfg.Tracer = tr
		inc, err := core.NewIncremental(cfg)
		if err != nil {
			t.Fatalf("seed %d: NewIncremental: %v", seed, err)
		}
		enc, feats := sc.enc, sc.ds.Features
		generations := 5 + sc.rng.Intn(3)
		for gen := 0; gen <= generations; gen++ {
			if gen > 0 {
				grow := gen == 2 || gen == generations || sc.rng.Intn(4) == 0
				res, err := sc.ap.AppendRows(sc.randBatch(gen, grow))
				if err != nil {
					t.Fatalf("seed %d: generation %d: AppendRows: %v", seed, gen, err)
				}
				sc.e = append(append([]float64(nil), sc.e...), drawBinary(sc.rng, res.NewRows)...)
				enc, feats = res.Enc, res.DS.Features
			}
			got, err := inc.Run(ctx, enc, feats, sc.e)
			if err != nil {
				failf(t, testName, seed, "generation %d: incremental run: %v", gen, err)
				continue
			}
			ref, err := core.Run(ctx, enc, feats, sc.e, nil, sc.cfg)
			if err != nil {
				failf(t, testName, seed, "generation %d: frozen run: %v", gen, err)
				continue
			}
			if err := CompareExact(ref, got); err != nil {
				failf(t, testName, seed, "generation %d: incremental vs frozen run: %v", gen, err)
			}
			if !reflect.DeepEqual(levelCounts(ref), levelCounts(got)) {
				failf(t, testName, seed, "generation %d: per-level counts differ: incremental %+v, frozen %+v",
					gen, levelCounts(got), levelCounts(ref))
			}
		}
		for _, sp := range tr.Spans() {
			if sp.Name != "core.eval" {
				continue
			}
			evals++
			if got := sp.AttrInt("binary", -1); got != 1 {
				failf(t, testName, seed, "a memo eval span reports binary=%d, want 1", got)
				break
			}
		}
	}
	if evals == 0 {
		t.Fatal("no memo evaluation ran: the sweep never reached level 2")
	}
}
