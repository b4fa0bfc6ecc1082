package core

import (
	"math/rand"
	"testing"

	"sliceline/internal/frame"
)

// TestWeightedEqualsReplicated: running with integer weights k must be
// exactly equivalent to physically replicating every row k times — the
// deduplicated form of the paper's row-scaling construction.
func TestWeightedEqualsReplicated(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	for trial := 0; trial < 12; trial++ {
		ds, e := randomDataset(rng, 80, 3, 3)
		k := 2 + rng.Intn(4)
		rep := ds.ReplicateRows(k)
		repErr := make([]float64, 0, len(e)*k)
		for r := 0; r < k; r++ {
			repErr = append(repErr, e...)
		}
		w := make([]float64, len(e))
		for i := range w {
			w[i] = float64(k)
		}
		cfg := Config{K: 5, Sigma: 6, Alpha: 0.85}
		replicated, err := runDS(rep, repErr, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		weighted, err := runDS(ds, e, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEqualScores(scoresOf(replicated.TopK), scoresOf(weighted.TopK)) {
			t.Fatalf("trial %d (k=%d): replicated %v vs weighted %v",
				trial, k, scoresOf(replicated.TopK), scoresOf(weighted.TopK))
		}
		for i := range weighted.TopK {
			if weighted.TopK[i].Size != replicated.TopK[i].Size {
				t.Fatalf("trial %d: weighted size %d vs replicated %d",
					trial, weighted.TopK[i].Size, replicated.TopK[i].Size)
			}
		}
	}
}

// TestWeightedNonUniform: per-row weights shift both average error and
// slice sizes; verify against a manually expanded dataset.
func TestWeightedNonUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	ds, e := randomDataset(rng, 60, 3, 3)
	w := make([]float64, 60)
	var expandedRows []int
	for i := range w {
		k := 1 + rng.Intn(3)
		w[i] = float64(k)
		for r := 0; r < k; r++ {
			expandedRows = append(expandedRows, i)
		}
	}
	// Build the physically expanded dataset.
	expX := make([]int, 0, len(expandedRows)*3)
	expE := make([]float64, 0, len(expandedRows))
	for _, i := range expandedRows {
		expX = append(expX, ds.X0.Row(i)...)
		expE = append(expE, e[i])
	}
	expanded := &frame.Dataset{
		Name:     "expanded",
		X0:       &frame.IntMatrix{Rows: len(expandedRows), Cols: 3, Data: expX},
		Features: ds.Features,
	}
	cfg := Config{K: 5, Sigma: 4, Alpha: 0.85}
	want, err := runDS(expanded, expE, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runDS(ds, e, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqualScores(scoresOf(got.TopK), scoresOf(want.TopK)) {
		t.Fatalf("weighted %v vs expanded %v", scoresOf(got.TopK), scoresOf(want.TopK))
	}
}

func TestWeightedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	ds, e := randomDataset(rng, 30, 2, 3)
	w := make([]float64, 30)
	for i := range w {
		w[i] = 1
	}
	if _, err := runDS(ds, e, w[:10], Config{Sigma: 2}); err == nil {
		t.Error("expected error for short weights")
	}
	w[5] = -1
	if _, err := runDS(ds, e, w, Config{Sigma: 2}); err == nil {
		t.Error("expected error for negative weight")
	}
	w[5] = 0
	if _, err := runDS(ds, e, w, Config{Sigma: 2}); err != nil {
		t.Errorf("zero weight among positives must be legal (windowed retirement): %v", err)
	}
	w[5] = 1
	if _, err := runDS(ds, e, w, Config{Sigma: 2, Evaluator: &faultyEvaluator{}}); err == nil {
		t.Error("expected error combining weights with external evaluator")
	}
}
