package baseline

import (
	"math/rand"
	"strings"
	"testing"
)

func TestErrorTreeFindsPlantedRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds, e := plantedDataset(rng, 3000)
	tree, err := TrainErrorTree(ds, e, TreeConfig{MaxDepth: 3, MinLeaf: 30})
	if err != nil {
		t.Fatal(err)
	}
	worst := tree.WorstLeaves(1)
	if len(worst) != 1 {
		t.Fatal("no leaves")
	}
	// The worst leaf must capture the planted region f0=1 AND f1=2: its mean
	// error should be near 5.5 and its path should mention both predicates.
	if worst[0].MeanError < 3 {
		t.Fatalf("worst leaf mean error %v, want >> background", worst[0].MeanError)
	}
	path := worst[0].Path
	if !strings.Contains(path, "f0=1") || !strings.Contains(path, "f1=2") {
		t.Fatalf("worst leaf path %q does not isolate the planted region", path)
	}
}

func TestErrorTreeLeavesPartition(t *testing.T) {
	// Leaves are non-overlapping and cover all rows: sizes sum to n.
	rng := rand.New(rand.NewSource(2))
	ds, e := plantedDataset(rng, 1500)
	tree, err := TrainErrorTree(ds, e, TreeConfig{MaxDepth: 4, MinLeaf: 20})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, l := range tree.Leaves() {
		total += l.Size
	}
	if total != ds.NumRows() {
		t.Fatalf("leaf sizes sum to %d, want %d (partition property)", total, ds.NumRows())
	}
}

func TestErrorTreeRespectsMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds, e := plantedDataset(rng, 1000)
	tree, err := TrainErrorTree(ds, e, TreeConfig{MaxDepth: 6, MinLeaf: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range tree.Leaves() {
		if l.Size < 100 {
			t.Fatalf("leaf of size %d below MinLeaf 100", l.Size)
		}
	}
}

func TestErrorTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds, e := plantedDataset(rng, 2000)
	tree, err := TrainErrorTree(ds, e, TreeConfig{MaxDepth: 2, MinLeaf: 10})
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 2 {
		t.Fatalf("depth %d exceeds cap 2", d)
	}
	for _, l := range tree.Leaves() {
		if len(l.Predicates) > 2 {
			t.Fatalf("leaf with %d equality predicates at depth cap 2", len(l.Predicates))
		}
	}
}

func TestErrorTreeConstantErrors(t *testing.T) {
	// No variance → no split → a single leaf.
	rng := rand.New(rand.NewSource(5))
	ds, _ := plantedDataset(rng, 500)
	e := make([]float64, 500)
	for i := range e {
		e[i] = 1
	}
	tree, err := TrainErrorTree(ds, e, TreeConfig{MaxDepth: 4, MinLeaf: 10})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tree.Leaves()); n != 1 {
		t.Fatalf("constant errors produced %d leaves, want 1", n)
	}
}

func TestErrorTreeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds, e := plantedDataset(rng, 100)
	if _, err := TrainErrorTree(ds, e[:50], TreeConfig{}); err == nil {
		t.Error("expected error for mismatched vector")
	}
}

func TestErrorTreeLeavesSortedByError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds, e := plantedDataset(rng, 2000)
	tree, err := TrainErrorTree(ds, e, TreeConfig{MaxDepth: 4, MinLeaf: 20})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	for i := 1; i < len(leaves); i++ {
		if leaves[i-1].MeanError < leaves[i].MeanError {
			t.Fatal("leaves not sorted by decreasing mean error")
		}
	}
}
