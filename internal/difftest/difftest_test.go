package difftest

import (
	"fmt"
	"testing"

	"sliceline/internal/core"
	"sliceline/internal/datagen"
	"sliceline/internal/fptol"
	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

func init() { datagen.RegisterSeedFlag() }

// ablation is one pruning/config combination of the Figure 3 ablation study.
type ablation struct {
	name  string
	apply func(*core.Config)
}

// ablations is the pruning on/off matrix: every rule individually disabled,
// everything on, and everything off. All of them must be result-preserving.
func ablations() []ablation {
	return []ablation{
		{"all-pruning", func(*core.Config) {}},
		{"no-size-pruning", func(c *core.Config) { c.DisableSizePruning = true }},
		{"no-score-pruning", func(c *core.Config) { c.DisableScorePruning = true }},
		{"no-parent-handling", func(c *core.Config) { c.DisableParentHandling = true }},
		{"no-dedup", func(c *core.Config) { c.DisableDedup = true }},
		{"no-pruning", func(c *core.Config) {
			c.DisableSizePruning = true
			c.DisableScorePruning = true
			c.DisableParentHandling = true
			c.DisableDedup = true
		}},
	}
}

func seedCount(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// failf reports a differential failure with its one-line reproducer.
func failf(t *testing.T, testName string, seed int64, format string, args ...interface{}) {
	t.Helper()
	t.Errorf("seed %d: %s\n%s", seed, fmt.Sprintf(format, args...), ReproLine(testName, seed))
}

// TestDiffBackendsAgree is the heart of the harness: on every seed, every
// execution plan — blocked evaluation at several block sizes, the CSR kernel,
// dense intermediates, priority enumeration, and in-process Dist-PFor
// clusters with 1–4 workers — must produce the same top-K as the builtin
// plan, under a rotating pruning-ablation configuration. Plans marked Exact
// must match it bit for bit, gap and annotations included.
func TestDiffBackendsAgree(t *testing.T) {
	abl := ablations()
	for _, seed := range Seeds(seedCount(30, 6)) {
		c := Generate(seed, Defaults)
		a := abl[int(seed)%len(abl)]
		a.apply(&c.Cfg)
		ref, err := BuiltinPlans()[0].Run(c)
		if err != nil {
			failf(t, "TestDiffBackendsAgree", seed, "builtin (%s): %v", a.name, err)
			continue
		}
		if err := CheckInvariants(ref, c.DS.NumFeatures()); err != nil {
			failf(t, "TestDiffBackendsAgree", seed, "builtin invariants (%s): %v", a.name, err)
		}
		for _, plan := range AllPlans()[1:] {
			got, err := plan.Run(c)
			if err != nil {
				failf(t, "TestDiffBackendsAgree", seed, "plan %s (%s): %v", plan.Name, a.name, err)
				continue
			}
			if err := CheckInvariants(got, c.DS.NumFeatures()); err != nil {
				failf(t, "TestDiffBackendsAgree", seed, "plan %s invariants (%s): %v", plan.Name, a.name, err)
			}
			compare := func(a, b *core.Result) error { return CompareResults(a, b, Tol) }
			if plan.Exact {
				compare = CompareAnnotated
			}
			if err := compare(ref, got); err != nil {
				failf(t, "TestDiffBackendsAgree", seed, "plan %s disagrees with builtin (%s): %v", plan.Name, a.name, err)
			}
		}
	}
}

// bruteForcePlans selects the backends checked against exhaustive
// enumeration: the builtin auto plan, the CSR kernel, dense intermediates,
// and an in-process cluster.
func bruteForcePlans() []Plan {
	var plans []Plan
	for _, p := range BuiltinPlans() {
		switch p.Name {
		case "builtin/auto", "kernel/csr", "dense":
			plans = append(plans, p)
		}
	}
	return append(plans, ClusterPlans(2)...)
}

// TestDiffBruteForce checks the exactness claim itself: on small instances,
// several backends must agree with exhaustive lattice enumeration, across
// the pruning-ablation matrix, on at least 50 random seeds.
func TestDiffBruteForce(t *testing.T) {
	abl := ablations()
	plans := bruteForcePlans()
	for _, seed := range Seeds(seedCount(60, 10)) {
		c := Generate(seed, Tiny)
		a := abl[int(seed)%len(abl)]
		a.apply(&c.Cfg)
		truth, err := core.BruteForce(c.DS, c.E, c.Cfg)
		if err != nil {
			failf(t, "TestDiffBruteForce", seed, "brute force: %v", err)
			continue
		}
		for _, plan := range plans {
			got, err := plan.Run(c)
			if err != nil {
				failf(t, "TestDiffBruteForce", seed, "plan %s (%s): %v", plan.Name, a.name, err)
				continue
			}
			if err := CompareToBruteForce(got, truth, Tol); err != nil {
				failf(t, "TestDiffBruteForce", seed, "plan %s vs brute force (%s): %v", plan.Name, a.name, err)
			}
		}
	}
}

// TestDiffPruningAblations pins every pruning rule as result-preserving:
// for each seed, all ablation configurations of the builtin plan must agree
// with the fully-unpruned enumeration.
func TestDiffPruningAblations(t *testing.T) {
	abl := ablations()
	for _, seed := range Seeds(seedCount(12, 4)) {
		c := Generate(seed, Defaults)
		base := c.Clone()
		abl[len(abl)-1].apply(&base.Cfg) // no-pruning ground truth
		ref, err := BuiltinPlans()[0].Run(base)
		if err != nil {
			failf(t, "TestDiffPruningAblations", seed, "unpruned run: %v", err)
			continue
		}
		for _, a := range abl[:len(abl)-1] {
			cc := c.Clone()
			a.apply(&cc.Cfg)
			got, err := BuiltinPlans()[0].Run(cc)
			if err != nil {
				failf(t, "TestDiffPruningAblations", seed, "%s: %v", a.name, err)
				continue
			}
			if err := CompareResults(ref, got, Tol); err != nil {
				failf(t, "TestDiffPruningAblations", seed, "%s changed the result: %v", a.name, err)
			}
		}
	}
}

// TestDiffTCPCluster runs the full TCP worker path (gob RPC serialization,
// partition shipping, concurrent partial aggregation) against the builtin
// plan on a smaller seed sweep.
func TestDiffTCPCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster sweep skipped in short mode")
	}
	for _, seed := range Seeds(6) {
		c := Generate(seed, Defaults)
		ref, err := BuiltinPlans()[0].Run(c)
		if err != nil {
			failf(t, "TestDiffTCPCluster", seed, "builtin: %v", err)
			continue
		}
		for _, plan := range TCPPlans(1, 2, 4) {
			got, err := plan.Run(c)
			if err != nil {
				failf(t, "TestDiffTCPCluster", seed, "plan %s: %v", plan.Name, err)
				continue
			}
			if err := CompareResults(ref, got, Tol); err != nil {
				failf(t, "TestDiffTCPCluster", seed, "plan %s disagrees with builtin: %v", plan.Name, err)
			}
		}
	}
}

// TestDiffWeightedUnitEqualsUnweighted: unit row weights multiply every
// aggregate by exactly 1.0, so the weighted path must be bit-identical to
// the unweighted one.
func TestDiffWeightedUnitEqualsUnweighted(t *testing.T) {
	for _, seed := range Seeds(seedCount(20, 5)) {
		c := Generate(seed, Defaults)
		ref, err := runDS(c.DS, c.E, nil, c.Cfg)
		if err != nil {
			failf(t, "TestDiffWeightedUnitEqualsUnweighted", seed, "unweighted: %v", err)
			continue
		}
		w := make([]float64, c.DS.NumRows())
		for i := range w {
			w[i] = 1
		}
		got, err := runDS(c.DS, c.E, w, c.Cfg)
		if err != nil {
			failf(t, "TestDiffWeightedUnitEqualsUnweighted", seed, "weighted: %v", err)
			continue
		}
		if err := CompareExact(ref, got); err != nil {
			failf(t, "TestDiffWeightedUnitEqualsUnweighted", seed, "unit weights not bit-identical: %v", err)
		}
	}
}

// TestDiffWeightedEqualsReplicated: integer weights must be equivalent to
// physically replicating each row weight-many times — the deduplicated
// representation row weights exist for.
func TestDiffWeightedEqualsReplicated(t *testing.T) {
	for _, seed := range Seeds(seedCount(20, 5)) {
		o := Tiny
		o.Weighted, o.IntWeights = true, true
		c := Generate(seed, o)
		wRes, err := runDS(c.DS, c.E, c.W, c.Cfg)
		if err != nil {
			failf(t, "TestDiffWeightedEqualsReplicated", seed, "weighted: %v", err)
			continue
		}
		exp, expE := replicateByWeight(c)
		rRes, err := runDS(exp, expE, nil, c.Cfg)
		if err != nil {
			failf(t, "TestDiffWeightedEqualsReplicated", seed, "replicated: %v", err)
			continue
		}
		if err := CompareResults(rRes, wRes, Tol); err != nil {
			failf(t, "TestDiffWeightedEqualsReplicated", seed, "weighted vs replicated: %v", err)
		}
	}
}

// TestDiffBitsetWeighted: on genuinely weighted cases (non-unit weights change
// the ss/se accumulation paths inside the kernels) the weighted bitset kernel
// must be bit-identical to the weighted CSR kernel, and a weighted run must
// agree with physical row replication for integral weights.
func TestDiffBitsetWeighted(t *testing.T) {
	for _, seed := range Seeds(seedCount(20, 5)) {
		o := Tiny
		o.Weighted, o.IntWeights = true, true
		c := Generate(seed, o)
		enc, err := frame.OneHot(c.DS)
		if err != nil {
			failf(t, "TestDiffBitsetWeighted", seed, "one-hot: %v", err)
			continue
		}
		cb := matrix.PackColumns(enc.X)
		for level, cols := range kernelCandidates(enc) {
			n := len(cols)
			ssB, seB, smB := make([]float64, n), make([]float64, n), make([]float64, n)
			ssC, seC, smC := make([]float64, n), make([]float64, n), make([]float64, n)
			core.EvalBitsetWeighted(cb, c.E, c.W, cols, ssB, seB, smB)
			core.EvalPartitionWeighted(enc.X, c.E, c.W, cols, level, 0, ssC, seC, smC)
			for j := range cols {
				if ssB[j] != ssC[j] || seB[j] != seC[j] || smB[j] != smC[j] {
					failf(t, "TestDiffBitsetWeighted", seed, "L%d cand %v: bitset (%v, %v, %v) vs csr (%v, %v, %v)",
						level, cols[j], ssB[j], seB[j], smB[j], ssC[j], seC[j], smC[j])
					break
				}
			}
		}
		got, err := runDS(c.DS, c.E, c.W, c.Cfg)
		if err != nil {
			failf(t, "TestDiffBitsetWeighted", seed, "weighted run: %v", err)
			continue
		}
		exp, expE := replicateByWeight(c)
		rRes, err := runDS(exp, expE, nil, c.Cfg)
		if err != nil {
			failf(t, "TestDiffBitsetWeighted", seed, "replicated run: %v", err)
			continue
		}
		if err := CompareResults(rRes, got, Tol); err != nil {
			failf(t, "TestDiffBitsetWeighted", seed, "weighted vs replicated rows: %v", err)
		}
	}
}

// kernelCandidates lists every level-1 and level-2 candidate of an encoding
// (one column, or two columns of different features), keyed by level.
func kernelCandidates(enc *frame.Encoding) map[int][][]int {
	out := map[int][][]int{}
	for c1 := 0; c1 < enc.Width(); c1++ {
		out[1] = append(out[1], []int{c1})
		for c2 := c1 + 1; c2 < enc.Width(); c2++ {
			if enc.FeatureOf(c1) != enc.FeatureOf(c2) {
				out[2] = append(out[2], []int{c1, c2})
			}
		}
	}
	return out
}

// replicateByWeight expands a weighted case into its unweighted equivalent:
// row i appears W[i] times (W must be integral).
func replicateByWeight(c *Case) (*frame.Dataset, []float64) {
	n, m := c.DS.NumRows(), c.DS.NumFeatures()
	total := 0
	for _, w := range c.W {
		total += int(w)
	}
	out := &frame.Dataset{
		Name:     c.DS.Name + "_expanded",
		X0:       frame.NewIntMatrix(total, m),
		Features: c.DS.Features,
	}
	e := make([]float64, 0, total)
	r := 0
	for i := 0; i < n; i++ {
		for k := 0; k < int(c.W[i]); k++ {
			copy(out.X0.Row(r), c.DS.X0.Row(i))
			e = append(e, c.E[i])
			r++
		}
	}
	return out, e
}

// TestDiffReferenceProgram cross-checks the fused production path against
// the literal materialized linear-algebra program of the paper.
func TestDiffReferenceProgram(t *testing.T) {
	ref := ReferencePlan()
	for _, seed := range Seeds(seedCount(10, 3)) {
		c := Generate(seed, Tiny)
		want, err := BuiltinPlans()[0].Run(c)
		if err != nil {
			failf(t, "TestDiffReferenceProgram", seed, "builtin: %v", err)
			continue
		}
		got, err := ref.Run(c)
		if err != nil {
			failf(t, "TestDiffReferenceProgram", seed, "reference: %v", err)
			continue
		}
		if err := CompareResults(want, got, Tol); err != nil {
			failf(t, "TestDiffReferenceProgram", seed, "reference program disagrees: %v", err)
		}
	}
}

// TestDiffDeterminism: every plan run twice on the same case must return
// bit-identical results. This pins the ordered partition merge of the
// cluster aggregation — a completion-order merge would make the same plan
// wobble in the last ULPs between runs.
func TestDiffDeterminism(t *testing.T) {
	plans := AllPlans()
	if !testing.Short() {
		plans = append(plans, TCPPlans(2)...)
	}
	for _, seed := range Seeds(seedCount(6, 2)) {
		c := Generate(seed, Defaults)
		for _, plan := range plans {
			a, err := plan.Run(c)
			if err != nil {
				failf(t, "TestDiffDeterminism", seed, "plan %s: %v", plan.Name, err)
				continue
			}
			b, err := plan.Run(c)
			if err != nil {
				failf(t, "TestDiffDeterminism", seed, "plan %s rerun: %v", plan.Name, err)
				continue
			}
			if err := CompareExact(a, b); err != nil {
				failf(t, "TestDiffDeterminism", seed, "plan %s nondeterministic: %v", plan.Name, err)
			}
		}
	}
}

// TestDiffChaosCluster: the self-healing runtime's differential guarantee.
// A cluster with two seeded-chaos workers (timeouts, hedging, heartbeats
// all live) must return results bit-identical to a fault-free cluster of
// the same shape — failover and hedging re-execute whole partitions on
// identical data and merge in partition order, so faults may change
// performance but never a single ULP of the result — and agree with the
// builtin plan within cross-plan tolerance.
func TestDiffChaosCluster(t *testing.T) {
	cleanRef := ClusterPlans(3)[0]
	for _, seed := range Seeds(seedCount(6, 2)) {
		c := Generate(seed, Defaults)
		builtin, err := BuiltinPlans()[0].Run(c)
		if err != nil {
			failf(t, "TestDiffChaosCluster", seed, "builtin: %v", err)
			continue
		}
		ref, err := cleanRef.Run(c)
		if err != nil {
			failf(t, "TestDiffChaosCluster", seed, "fault-free cluster: %v", err)
			continue
		}
		for _, plan := range ChaosPlans(seed, seed+500) {
			got, err := plan.Run(c)
			if err != nil {
				failf(t, "TestDiffChaosCluster", seed, "plan %s: %v", plan.Name, err)
				continue
			}
			if err := CompareExact(ref, got); err != nil {
				failf(t, "TestDiffChaosCluster", seed, "plan %s not bit-identical to fault-free cluster: %v", plan.Name, err)
			}
			if err := CompareResults(builtin, got, Tol); err != nil {
				failf(t, "TestDiffChaosCluster", seed, "plan %s disagrees with builtin: %v", plan.Name, err)
			}
		}
	}
}

// TestShrink exercises the case minimizer on a synthetic failure predicate.
func TestShrink(t *testing.T) {
	c := Generate(1, Defaults)
	evals := 0
	fails := func(cand *Case) bool {
		evals++
		return cand.DS.NumRows() >= 10 && cand.DS.NumFeatures() >= 2
	}
	small := Shrink(c, fails)
	if !fails(small) {
		t.Fatal("shrunk case no longer fails")
	}
	if small.DS.NumRows() >= c.DS.NumRows() && small.DS.NumFeatures() >= c.DS.NumFeatures() {
		t.Fatalf("shrink made no progress: %dx%d -> %dx%d",
			c.DS.NumRows(), c.DS.NumFeatures(), small.DS.NumRows(), small.DS.NumFeatures())
	}
	if small.DS.NumRows() > 20 {
		t.Fatalf("shrink stopped early at %d rows", small.DS.NumRows())
	}
	if err := small.DS.Validate(); err != nil {
		t.Fatalf("shrunk dataset invalid: %v", err)
	}
	if len(small.E) != small.DS.NumRows() {
		t.Fatalf("shrunk error vector misaligned: %d vs %d rows", len(small.E), small.DS.NumRows())
	}
}

// TestGenerateDeterministic: equal seeds must produce equal cases — the
// foundation of the -seed reproducer.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a := Generate(seed, Defaults)
		b := Generate(seed, Defaults)
		if a.DS.NumRows() != b.DS.NumRows() || a.DS.NumFeatures() != b.DS.NumFeatures() {
			t.Fatalf("seed %d: shapes differ", seed)
		}
		for i, v := range a.DS.X0.Data {
			if b.DS.X0.Data[i] != v {
				t.Fatalf("seed %d: X0 differs at %d", seed, i)
			}
		}
		if !fptol.Exact.CloseSlices(a.E, b.E) {
			t.Fatalf("seed %d: error vectors differ", seed)
		}
		if a.Cfg.K != b.Cfg.K || a.Cfg.Sigma != b.Cfg.Sigma || a.Cfg.Alpha != b.Cfg.Alpha {
			t.Fatalf("seed %d: configs differ", seed)
		}
	}
}
