package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"sliceline/internal/fptol"
	"sliceline/internal/matrix"
)

// TestMonotonicityAlongLatticePaths verifies the Section 3.1 properties on
// random data by direct scanning: extending a slice with one more predicate
// never increases its size, total error, or maximum tuple error.
func TestMonotonicityAlongLatticePaths(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(60))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds, e := randomDataset(rng, 80, 4, 3)
		stats := func(preds map[int]int) (ss, se, sm float64) {
			for i := 0; i < ds.NumRows(); i++ {
				ok := true
				for f, v := range preds {
					if ds.X0.At(i, f) != v {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				ss++
				se += e[i]
				if e[i] > sm {
					sm = e[i]
				}
			}
			return
		}
		// Random parent slice, then a random extension.
		parent := map[int]int{}
		f1 := rng.Intn(4)
		parent[f1] = 1 + rng.Intn(ds.Features[f1].Domain)
		if rng.Intn(2) == 1 {
			f2 := (f1 + 1) % 4
			parent[f2] = 1 + rng.Intn(ds.Features[f2].Domain)
		}
		child := map[int]int{}
		for k, v := range parent {
			child[k] = v
		}
		for f := 0; f < 4; f++ {
			if _, used := child[f]; !used {
				child[f] = 1 + rng.Intn(ds.Features[f].Domain)
				break
			}
		}
		pss, pse, psm := stats(parent)
		css, cse, csm := stats(child)
		return css <= pss && cse <= pse+1e-12 && csm <= psm
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestUpperBoundDominatesChildren: for random parents, the Equation-3 upper
// bound computed from the parent's statistics must dominate the actual score
// of every child slice that meets the support threshold.
func TestUpperBoundDominatesChildren(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(61))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds, e := randomDataset(rng, 120, 3, 3)
		sigma := 2 + rng.Intn(6)
		sc := newScorer(ds.NumRows(), e, 0.3+0.69*rng.Float64(), sigma)
		stats := func(preds map[int]int) (ss, se, sm float64) {
			for i := 0; i < ds.NumRows(); i++ {
				ok := true
				for f, v := range preds {
					if ds.X0.At(i, f) != v {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				ss++
				se += e[i]
				if e[i] > sm {
					sm = e[i]
				}
			}
			return
		}
		f1 := rng.Intn(3)
		v1 := 1 + rng.Intn(ds.Features[f1].Domain)
		pss, pse, psm := stats(map[int]int{f1: v1})
		ub := sc.upperBound(pss, pse, psm)
		// Every 2-predicate child extending the parent:
		for f2 := 0; f2 < 3; f2++ {
			if f2 == f1 {
				continue
			}
			for v2 := 1; v2 <= ds.Features[f2].Domain; v2++ {
				css, cse, _ := stats(map[int]int{f1: v1, f2: v2})
				if css < float64(sigma) {
					continue
				}
				if s := sc.score(css, cse); s > ub && !fptol.DefaultTol.Close(s, ub) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// faultyEvaluator returns malformed results to exercise the driver's
// validation.
type faultyEvaluator struct {
	failSetup bool
	failEval  bool
	short     bool
}

func (f *faultyEvaluator) Setup(ctx context.Context, x *matrix.CSR, e []float64) error {
	if f.failSetup {
		return errors.New("injected setup failure")
	}
	return nil
}

func (f *faultyEvaluator) Eval(ctx context.Context, cols [][]int, level int) ([]float64, []float64, []float64, error) {
	if f.failEval {
		return nil, nil, nil, errors.New("injected eval failure")
	}
	if f.short {
		return []float64{1}, []float64{1}, []float64{1}, nil
	}
	n := len(cols)
	return make([]float64, n), make([]float64, n), make([]float64, n), nil
}

func TestEvaluatorFailureInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ds, e := randomDataset(rng, 100, 3, 3)
	cases := []struct {
		name string
		ev   *faultyEvaluator
	}{
		{"setup-failure", &faultyEvaluator{failSetup: true}},
		{"eval-failure", &faultyEvaluator{failEval: true}},
		{"short-result", &faultyEvaluator{short: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := runDS(ds, e, nil, Config{K: 4, Sigma: 2, Alpha: 0.9, Evaluator: c.ev})
			if err == nil {
				t.Fatal("expected error from faulty evaluator")
			}
		})
	}
}
