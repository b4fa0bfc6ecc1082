package core

import (
	"math/rand"
	"testing"
)

// TestPriorityEnumerationExact: priority-based enumeration must return the
// same top-K scores as both the plain enumerator and brute force.
func TestPriorityEnumerationExact(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		ds, e := randomDataset(rng, 60+rng.Intn(120), 2+rng.Intn(4), 4)
		cfg := Config{
			K:     1 + rng.Intn(5),
			Sigma: 2 + rng.Intn(8),
			Alpha: 0.4 + 0.59*rng.Float64(),
		}
		pCfg := cfg
		pCfg.PriorityEnumeration = true
		got, err := runDS(ds, e, nil, pCfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(ds, e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEqualScores(scoresOf(got.TopK), scoresOf(want)) {
			t.Fatalf("trial %d: priority %v vs brute force %v", trial, scoresOf(got.TopK), scoresOf(want))
		}
	}
}

// TestPriorityEnumerationNeverEvaluatesMore: the re-pruning between chunks
// can only reduce the number of evaluated candidates.
func TestPriorityEnumerationNeverEvaluatesMore(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 10; trial++ {
		ds, e := randomDataset(rng, 250, 5, 3)
		cfg := Config{K: 3, Sigma: 4, Alpha: 0.9}
		plain, err := runDS(ds, e, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.PriorityEnumeration = true
		prio, err := runDS(ds, e, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prio.TotalCandidates() > plain.TotalCandidates() {
			t.Fatalf("trial %d: priority evaluated %d > plain %d",
				trial, prio.TotalCandidates(), plain.TotalCandidates())
		}
	}
}

// TestPriorityWithScorePruningDisabled: without score pruning the priority
// path degenerates to ordered evaluation but must stay correct.
func TestPriorityWithScorePruningDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	ds, e := randomDataset(rng, 150, 4, 3)
	cfg := Config{K: 4, Sigma: 3, Alpha: 0.9, PriorityEnumeration: true, DisableScorePruning: true}
	got, err := runDS(ds, e, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(ds, e, Config{K: 4, Sigma: 3, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqualScores(scoresOf(got.TopK), scoresOf(want)) {
		t.Fatalf("%v vs %v", scoresOf(got.TopK), scoresOf(want))
	}
}
