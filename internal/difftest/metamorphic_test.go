package difftest

import (
	"context"
	"math"
	"reflect"
	"testing"

	"sliceline/internal/core"
	"sliceline/internal/datagen"
	"sliceline/internal/fptol"
	"sliceline/internal/frame"
)

// metamorphicShapes are the synthetic datasets the whole-pipeline
// properties run on: Adult and Covtype have 0/1 errors, Salaries continuous
// ones. Sigma 0 resolves σ from the original row count.
var metamorphicShapes = []struct {
	name, dataset string
	rows          int
	cfg           core.Config
}{
	{"adult-k8-a0.99-L4", "adult", 0, core.Config{K: 8, Alpha: 0.99, MaxLevel: 4}},
	{"adult-k4-s100", "adult", 0, core.Config{K: 4, Sigma: 100}},
	{"covtype-3k-L3", "covtype", 3000, core.Config{MaxLevel: 3}},
	{"salaries", "salaries", 0, core.Config{}},
}

// TestDiffReplicatedRows: replicating every row f ∈ {2, 3} times with σ
// scaled by f (EXPERIMENTS.md fig7a's construction) keeps every level's
// Candidates, Valid and Pruned counts and the top-K's predicates, and
// scales each slice's size and total error by f. On 0/1 errors every score
// is a ratio of exact integer counts that scale together, so the scores,
// average errors and the gap are bit-identical and the total errors exactly
// f times the original's; on continuous errors they agree within fptol.
// p-values are not compared: they legitimately change with n.
func TestDiffReplicatedRows(t *testing.T) {
	compared := 0
	for _, sh := range metamorphicShapes {
		g, err := datagen.ByName(sh.dataset, sh.rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		binary := binaryVector(g.Err)
		cfg := sh.cfg.WithDefaults(g.DS.NumRows())
		want, err := runDS(g.DS, g.Err, nil, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		for _, f := range []int{2, 3} {
			r := g.ReplicateRows(f)
			rcfg := cfg
			rcfg.Sigma = f * cfg.Sigma
			got, err := runDS(r.DS, r.Err, nil, rcfg)
			if err != nil {
				t.Fatalf("%s ×%d: %v", sh.name, f, err)
			}
			if !reflect.DeepEqual(levelCounts(got), levelCounts(want)) {
				t.Errorf("%s ×%d: level counts %+v, want %+v", sh.name, f, levelCounts(got), levelCounts(want))
			}
			if got.N != f*want.N || got.Sigma != rcfg.Sigma || !same(got.AvgError, want.AvgError, binary) || !same(got.Gap, want.Gap, binary) {
				t.Errorf("%s ×%d: N %d, σ %d, average error %v, gap %v; want %d, %d, %v, %v",
					sh.name, f, got.N, got.Sigma, got.AvgError, got.Gap, f*want.N, rcfg.Sigma, want.AvgError, want.Gap)
			}
			if len(got.TopK) != len(want.TopK) {
				t.Errorf("%s ×%d: %d slices, want %d", sh.name, f, len(got.TopK), len(want.TopK))
				continue
			}
			for i, w := range want.TopK {
				s := got.TopK[i]
				if !predsEqual(s.Predicates, w.Predicates) || s.Size != f*w.Size || s.MaxError != w.MaxError ||
					!same(s.Score, w.Score, binary) || !same(s.AvgError, w.AvgError, binary) ||
					!same(s.TotalError, float64(f)*w.TotalError, binary) {
					t.Errorf("%s ×%d: rank %d is %+v, want %+v with size and total error ×%d", sh.name, f, i, s, w, f)
				}
			}
			compared += len(want.TopK)
		}
	}
	if compared == 0 {
		t.Fatal("every top-K was empty: the property compares nothing")
	}
}

// TestDiffSelfIsEmpty: a diff run of an error vector against itself finds
// no slice that regressed or improved, and certifies that with gap 0.
func TestDiffSelfIsEmpty(t *testing.T) {
	for _, sh := range []struct {
		dataset string
		rows    int
	}{{"adult", 0}, {"salaries", 0}, {"covtype", 2000}} {
		g, err := datagen.ByName(sh.dataset, sh.rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := frame.OneHot(g.DS)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunDiff(context.Background(), enc, g.DS.Features, g.Err, g.Err, core.Config{})
		if err != nil {
			t.Fatalf("%s: %v", sh.dataset, err)
		}
		if len(res.TopK) != 0 || res.Gap != 0 {
			t.Errorf("%s: diff(e, e) returned %d slices and gap %v, want none and 0", sh.dataset, len(res.TopK), res.Gap)
		}
	}
}

// binaryVector reports whether every error is 0 or 1.
func binaryVector(e []float64) bool {
	for _, v := range e {
		if v != 0 && v != 1 {
			return false
		}
	}
	return true
}

// same compares bit for bit when exact is set, else within fptol.
func same(a, b float64, exact bool) bool {
	if exact {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return fptol.DefaultTol.Close(a, b)
}
