package difftest

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/frame"
	"sliceline/internal/stats"
)

// Differential scenarios for the three workloads that share the batch
// enumeration engine:
//
//   - anytime: a budgeted run is bit-identical — top-K, gap certificate and
//     statistical annotations — to a batch run capped at the level where the
//     budget stopped it, and snapshot gaps only ever shrink;
//   - diff: core.RunDiff lowers onto two weighted runs over the rectified error
//     deltas, so each signed direction of the merged top-K must be the
//     corresponding standalone run, bit for bit;
//   - statistics: the p-values recovered from kernel accumulators match a
//     brute-force Welch test over the raw rows, and the q-values obey the
//     Benjamini–Hochberg structure.

// TestWorkloadAnytimeGenerousBudget: with a budget the run cannot exhaust,
// anytime mode is the batch run — same top-K, annotations and a zero gap —
// and every snapshot stream is monotone.
func TestWorkloadAnytimeGenerousBudget(t *testing.T) {
	for _, seed := range Seeds(12) {
		c := Generate(seed, Defaults)
		batch, err := runDS(c.DS, c.E, nil, c.Cfg)
		if err != nil {
			t.Fatalf("seed %d: batch: %v\n%s", seed, err, ReproLine(t.Name(), seed))
		}

		var snaps []core.Snapshot
		anyCfg := c.Cfg
		anyCfg.Budget = time.Hour
		anyCfg.OnSnapshot = func(s core.Snapshot) { snaps = append(snaps, s) }
		anyRes, err := runDS(c.DS, c.E, nil, anyCfg)
		if err != nil {
			t.Fatalf("seed %d: anytime: %v\n%s", seed, err, ReproLine(t.Name(), seed))
		}

		if err := CompareAnnotated(batch, anyRes); err != nil {
			t.Fatalf("seed %d: anytime differs from batch: %v\n%s", seed, err, ReproLine(t.Name(), seed))
		}
		if anyRes.Gap != 0 {
			t.Fatalf("seed %d: exhausted run certifies gap %v, want 0\n%s", seed, anyRes.Gap, ReproLine(t.Name(), seed))
		}
		if len(snaps) == 0 {
			t.Fatalf("seed %d: no snapshots emitted\n%s", seed, ReproLine(t.Name(), seed))
		}
		for i := 1; i < len(snaps); i++ {
			if snaps[i].Gap > snaps[i-1].Gap {
				t.Fatalf("seed %d: snapshot gap increased %v -> %v at level %d\n%s",
					seed, snaps[i-1].Gap, snaps[i].Gap, snaps[i].Level, ReproLine(t.Name(), seed))
			}
			if snaps[i].Level <= snaps[i-1].Level {
				t.Fatalf("seed %d: snapshot levels not increasing (%d after %d)\n%s",
					seed, snaps[i].Level, snaps[i-1].Level, ReproLine(t.Name(), seed))
			}
		}
		if last := snaps[len(snaps)-1]; !anyRes.Truncated && last.Gap != anyRes.Gap {
			t.Fatalf("seed %d: final snapshot gap %v vs result gap %v\n%s",
				seed, last.Gap, anyRes.Gap, ReproLine(t.Name(), seed))
		}
	}
}

// TestWorkloadAnytimeBudgetStop: the budget is consulted only at level
// boundaries, so a budget-stopped run must be bit-identical — including the
// certified gap — to a batch run with MaxLevel pinned at the level the
// budget allowed. Exercised both with an immediately-expiring budget
// (deterministically stops after level 1) and with a short real budget whose
// stopping level is read back from the run itself.
func TestWorkloadAnytimeBudgetStop(t *testing.T) {
	for _, seed := range Seeds(12) {
		c := Generate(seed, Defaults)
		for _, budget := range []time.Duration{time.Nanosecond, 2 * time.Millisecond} {
			anyCfg := c.Cfg
			anyCfg.Budget = budget
			anyRes, err := runDS(c.DS, c.E, nil, anyCfg)
			if err != nil {
				t.Fatalf("seed %d: anytime(%v): %v\n%s", seed, budget, err, ReproLine(t.Name(), seed))
			}
			if anyRes.Truncated {
				continue // candidate-budget abort has its own semantics
			}
			// The last recorded level is the last completed one; a batch run
			// capped there must reproduce the anytime state exactly.
			stopped := anyRes.Levels[len(anyRes.Levels)-1].Level
			batchCfg := c.Cfg
			batchCfg.MaxLevel = stopped
			batch, err := runDS(c.DS, c.E, nil, batchCfg)
			if err != nil {
				t.Fatalf("seed %d: batch MaxLevel=%d: %v\n%s", seed, stopped, err, ReproLine(t.Name(), seed))
			}
			if err := CompareAnnotated(batch, anyRes); err != nil {
				t.Fatalf("seed %d: anytime(%v, stopped at %d) differs from batch MaxLevel=%d: %v\n%s",
					seed, budget, stopped, stopped, err, ReproLine(t.Name(), seed))
			}
			if budget == time.Nanosecond && stopped != 1 {
				t.Fatalf("seed %d: 1ns budget survived to level %d\n%s", seed, stopped, ReproLine(t.Name(), seed))
			}
		}
	}
}

// TestWorkloadDiffEquivalence: RunDiff is exactly two weighted runs over the
// rectified error deltas. Filtering the merged top-K by sign must recover
// each standalone run bit for bit, annotations included, and the merged gap
// is the worse of the two directions' certificates.
func TestWorkloadDiffEquivalence(t *testing.T) {
	for _, seed := range Seeds(12) {
		c := Generate(seed, Defaults)
		eBase := c.E
		// A deterministic "new model": some rows regress, some improve.
		rng := rand.New(rand.NewSource(seed + 7919))
		eNew := make([]float64, len(eBase))
		for i := range eNew {
			switch r := rng.Float64(); {
			case r < 0.3:
				eNew[i] = eBase[i] + rng.Float64() // regression
			case r < 0.6:
				eNew[i] = eBase[i] * rng.Float64() // improvement
			default:
				eNew[i] = eBase[i]
			}
		}

		enc, err := frame.OneHot(c.DS)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := core.RunDiff(context.Background(), enc, c.DS.Features, eBase, eNew, c.Cfg)
		if err != nil {
			t.Fatalf("seed %d: RunDiff: %v\n%s", seed, err, ReproLine(t.Name(), seed))
		}

		reg := make([]float64, len(eBase))
		imp := make([]float64, len(eBase))
		ones := make([]float64, len(eBase))
		for i := range eBase {
			reg[i] = math.Max(0, eNew[i]-eBase[i])
			imp[i] = math.Max(0, eBase[i]-eNew[i])
			ones[i] = 1
		}
		regRes, err := runDS(c.DS, reg, ones, c.Cfg)
		if err != nil {
			t.Fatalf("seed %d: regression direction: %v\n%s", seed, err, ReproLine(t.Name(), seed))
		}
		impRes, err := runDS(c.DS, imp, ones, c.Cfg)
		if err != nil {
			t.Fatalf("seed %d: improvement direction: %v\n%s", seed, err, ReproLine(t.Name(), seed))
		}

		checkDirection(t, seed, diff, regRes, 1)
		checkDirection(t, seed, diff, impRes, -1)
		if want := math.Max(regRes.Gap, impRes.Gap); diff.Gap != want {
			t.Fatalf("seed %d: merged gap %v, want max of directions %v\n%s", seed, diff.Gap, want, ReproLine(t.Name(), seed))
		}
		if len(diff.TopK) != len(regRes.TopK)+len(impRes.TopK) {
			t.Fatalf("seed %d: merged top-K holds %d slices, directions hold %d+%d\n%s",
				seed, len(diff.TopK), len(regRes.TopK), len(impRes.TopK), ReproLine(t.Name(), seed))
		}
	}
}

// checkDirection asserts that the signed slices of a merged diff result are
// exactly the standalone run for that direction: same slices in the same
// order, same statistics, same p/q annotations.
func checkDirection(t *testing.T, seed int64, diff, want *core.Result, sign int) {
	t.Helper()
	var got []core.Slice
	for _, s := range diff.TopK {
		if s.DiffSign == sign {
			got = append(got, s)
		}
	}
	if err := CompareExact(&core.Result{TopK: got}, want); err != nil {
		t.Fatalf("seed %d: direction %+d: %v\n%s", seed, sign, err, ReproLine(t.Name(), seed))
	}
	for i := range got {
		g, w := got[i], want.TopK[i]
		if g.PValue != w.PValue || g.QValue != w.QValue || g.Significant != w.Significant {
			t.Fatalf("seed %d: direction %+d rank %d annotations differ: p=%v/%v q=%v/%v sig=%v/%v\n%s",
				seed, sign, i, g.PValue, w.PValue, g.QValue, w.QValue, g.Significant, w.Significant,
				ReproLine(t.Name(), seed))
		}
	}
}

// TestWorkloadStatisticsBruteForce: per-slice p-values recovered from the
// enumeration's (ss, se) accumulators plus the decode-time sum of squares
// must match a from-scratch Welch test over the raw rows, and q-values must
// carry the Benjamini–Hochberg structure (q >= p, within [p, 1], monotone
// in p-rank, significance marker consistent with the configured level).
func TestWorkloadStatisticsBruteForce(t *testing.T) {
	for _, seed := range Seeds(12) {
		opts := Defaults
		opts.Weighted = seed%2 == 0 // alternate weighted and unweighted
		c := Generate(seed, opts)
		res, err := runDS(c.DS, c.E, c.W, c.Cfg)
		if err != nil {
			t.Fatalf("seed %d: run: %v\n%s", seed, err, ReproLine(t.Name(), seed))
		}
		for i, s := range res.TopK {
			want := bruteForceWelchP(c, s)
			if !Tol.Close(want, s.PValue) {
				t.Fatalf("seed %d: rank %d p-value %v vs brute force %v\n%s",
					seed, i, s.PValue, want, ReproLine(t.Name(), seed))
			}
			if s.QValue < s.PValue || s.QValue > 1 {
				t.Fatalf("seed %d: rank %d q-value %v outside [p=%v, 1]\n%s",
					seed, i, s.QValue, s.PValue, ReproLine(t.Name(), seed))
			}
			if s.Significant != (s.QValue <= core.DefaultSignificance) {
				t.Fatalf("seed %d: rank %d significance marker disagrees with q=%v at level %v\n%s",
					seed, i, s.QValue, core.DefaultSignificance, ReproLine(t.Name(), seed))
			}
		}
		// BH monotonicity: ordering slices by ascending p must order their
		// q-values weakly ascending too (step-up q is monotone in p-rank).
		byP := append([]core.Slice(nil), res.TopK...)
		for i := 1; i < len(byP); i++ {
			for j := i; j > 0 && byP[j].PValue < byP[j-1].PValue; j-- {
				byP[j], byP[j-1] = byP[j-1], byP[j]
			}
		}
		for i := 1; i < len(byP); i++ {
			if byP[i].QValue < byP[i-1].QValue {
				t.Fatalf("seed %d: q-values not monotone in p-rank: q=%v (p=%v) after q=%v (p=%v)\n%s",
					seed, byP[i].QValue, byP[i].PValue, byP[i-1].QValue, byP[i-1].PValue,
					ReproLine(t.Name(), seed))
			}
		}
	}
}

// bruteForceWelchP recomputes a slice's one-sided p-value from the raw rows:
// membership by predicate conjunction over the original matrix, a two-pass
// weighted variance on each side of the partition, then Welch + the upper
// t-tail — deliberately not the accumulator-subtraction path the engine
// uses. Mirrors the engine's conventions: degenerate partitions report 1,
// and the result is floored at the smallest positive float64.
func bruteForceWelchP(c *Case, s core.Slice) float64 {
	n := c.DS.NumRows()
	member := make([]bool, n)
	for i := 0; i < n; i++ {
		in := true
		for _, p := range s.Predicates {
			if c.DS.X0.At(i, p.Feature) != p.Value {
				in = false
				break
			}
		}
		member[i] = in
	}
	weight := func(i int) float64 {
		if c.W == nil {
			return 1
		}
		return c.W[i]
	}
	var n1, n2, se1, se2 float64
	for i := 0; i < n; i++ {
		w := weight(i)
		if member[i] {
			n1 += w
			se1 += w * c.E[i]
		} else {
			n2 += w
			se2 += w * c.E[i]
		}
	}
	if n1 <= 1 || n2 <= 1 {
		return 1
	}
	m1, m2 := se1/n1, se2/n2
	var v1, v2 float64
	for i := 0; i < n; i++ {
		w := weight(i)
		d := c.E[i]
		if member[i] {
			v1 += w * (d - m1) * (d - m1)
		} else {
			v2 += w * (d - m2) * (d - m2)
		}
	}
	v1 /= n1 - 1
	v2 /= n2 - 1
	tStat, df := stats.Welch(m1, v1, n1, m2, v2, n2)
	return math.Max(stats.TCDFUpper(tStat, df), math.SmallestNonzeroFloat64)
}
