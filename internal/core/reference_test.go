package core

import (
	"math/rand"
	"testing"

	"sliceline/internal/obs"
)

// TestReferenceMatchesOptimized: the literal linear-algebra program of the
// paper and the fused production engine must return identical top-K scores
// on random datasets — the executable-specification check.
func TestReferenceMatchesOptimized(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		ds, e := randomDataset(rng, 60+rng.Intn(120), 2+rng.Intn(4), 4)
		cfg := Config{
			K:     1 + rng.Intn(5),
			Sigma: 2 + rng.Intn(8),
			Alpha: 0.4 + 0.59*rng.Float64(),
		}
		ref, err := RunReference(ds, e, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := runDS(ds, e, nil, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !approxEqualScores(scoresOf(ref.TopK), scoresOf(opt.TopK)) {
			t.Fatalf("trial %d: reference %v vs optimized %v",
				trial, scoresOf(ref.TopK), scoresOf(opt.TopK))
		}
	}
}

// TestLevelCountsMatchReference checks the engine's candidate generation
// against the materialized Section 4.3 program level by level: both must
// evaluate the same number of candidates and find the same number of valid
// slices at every level. The fixture must reach level 4 and trigger the
// missing-parent rule, so the pair-count form of np is exercised.
func TestLevelCountsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	deep, parentPrunes := 0, 0
	for trial := 0; trial < 60; trial++ {
		ds, e := randomDataset(rng, 60+rng.Intn(140), 3+rng.Intn(4), 4)
		cfg := Config{
			K:     1 + rng.Intn(5),
			Sigma: 2 + rng.Intn(6),
			Alpha: 0.4 + 0.59*rng.Float64(),
		}
		ref, err := RunReference(ds, e, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tr := obs.NewJSONTracer()
		cfg.Tracer = tr
		got, err := runDS(ds, e, nil, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got.Levels) != len(ref.Levels) {
			t.Fatalf("trial %d: %d levels, reference %d", trial, len(got.Levels), len(ref.Levels))
		}
		for i, l := range got.Levels {
			r := ref.Levels[i]
			if l.Level != r.Level || l.Candidates != r.Candidates || l.Valid != r.Valid {
				t.Fatalf("trial %d level %d: %d candidates / %d valid, reference level %d: %d / %d",
					trial, l.Level, l.Candidates, l.Valid, r.Level, r.Candidates, r.Valid)
			}
		}
		if len(got.Levels) >= 4 {
			deep++
		}
		for _, sp := range tr.Spans() {
			if sp.Name == "core.level" && sp.AttrInt("pruned_parents", 0) > 0 {
				parentPrunes++
			}
		}
	}
	if deep == 0 || parentPrunes == 0 {
		t.Fatalf("fixture too shallow: %d trials reached level 4, %d levels pruned missing parents", deep, parentPrunes)
	}
}

// TestReferenceMatchesBruteForce closes the triangle: the reference program
// must also be exact.
func TestReferenceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 10; trial++ {
		ds, e := randomDataset(rng, 100, 3, 3)
		cfg := Config{K: 4, Sigma: 3, Alpha: 0.85}
		ref, err := RunReference(ds, e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(ds, e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEqualScores(scoresOf(ref.TopK), scoresOf(want)) {
			t.Fatalf("trial %d: %v vs %v", trial, scoresOf(ref.TopK), scoresOf(want))
		}
	}
}

func TestReferenceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	ds, e := randomDataset(rng, 30, 2, 3)
	if _, err := RunReference(ds, e[:10], Config{}); err == nil {
		t.Error("expected error for short error vector")
	}
	e[0] = -1
	if _, err := RunReference(ds, e, Config{Sigma: 2}); err == nil {
		t.Error("expected error for negative error")
	}
}

func TestReferenceLevelCap(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	ds, e := randomDataset(rng, 120, 4, 3)
	res, err := RunReference(ds, e, Config{K: 4, Sigma: 3, Alpha: 0.9, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.TopK {
		if len(s.Predicates) > 2 {
			t.Fatalf("slice with %d predicates despite MaxLevel 2", len(s.Predicates))
		}
	}
	for _, ls := range res.Levels {
		if ls.Level > 2 {
			t.Fatalf("level %d enumerated despite cap", ls.Level)
		}
	}
}
