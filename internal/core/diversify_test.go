package core

import (
	"math/rand"
	"testing"

	"sliceline/internal/frame"
)

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []int
		want float64
	}{
		{[]int{1, 2, 3}, []int{1, 2, 3}, 1},
		{[]int{1, 2}, []int{3, 4}, 0},
		{[]int{1, 2, 3}, []int{2, 3, 4}, 0.5},
		{nil, nil, 0},
		{[]int{1}, nil, 0},
	}
	for i, c := range cases {
		if got := jaccard(c.a, c.b); got != c.want {
			t.Errorf("case %d: jaccard = %v, want %v", i, got, c.want)
		}
	}
}

func TestDiversifyDropsNearDuplicates(t *testing.T) {
	// Duplicate-column dataset: f0 and f1 are identical, so the slices
	// f0=1 and f1=1 cover exactly the same rows.
	n := 100
	ds := &frame.Dataset{
		Name: "dup",
		X0:   frame.NewIntMatrix(n, 2),
		Features: []frame.Feature{
			{Name: "f0", Domain: 2},
			{Name: "f1", Domain: 2},
		},
	}
	e := make([]float64, n)
	for i := 0; i < n; i++ {
		v := 1 + i%2
		ds.X0.Set(i, 0, v)
		ds.X0.Set(i, 1, v)
		if v == 1 {
			e[i] = 1
		}
	}
	res, err := runDS(ds, e, nil, Config{K: 4, Sigma: 5, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) < 2 {
		t.Fatalf("need duplicate slices to test, got %d", len(res.TopK))
	}
	div, err := Diversify(ds, res.TopK, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(div) != 1 {
		t.Fatalf("diversified to %d slices, want 1 (all duplicates cover the same rows)", len(div))
	}
	if div[0].Score != res.TopK[0].Score {
		t.Fatal("diversification must keep the best slice")
	}
}

func TestDiversifyKeepsDistinctSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	ds, e := randomDataset(rng, 300, 4, 3)
	res, err := runDS(ds, e, nil, Config{K: 8, Sigma: 4, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) == 0 {
		t.Skip("no slices in this draw")
	}
	// Threshold 1 - epsilon keeps everything except exact duplicates.
	div, err := Diversify(ds, res.TopK, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if len(div) == 0 {
		t.Fatal("diversification dropped everything")
	}
	// Order and scores must be preserved among kept slices.
	for i := 1; i < len(div); i++ {
		if div[i-1].Score < div[i].Score {
			t.Fatal("diversified slices out of score order")
		}
	}
	// Threshold 0 keeps only pairwise-disjoint slices.
	disjoint, err := Diversify(ds, res.TopK, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(disjoint); i++ {
		ri, _ := SliceRows(ds, disjoint[i])
		for j := i + 1; j < len(disjoint); j++ {
			rj, _ := SliceRows(ds, disjoint[j])
			if jaccard(ri, rj) > 0 {
				t.Fatal("threshold 0 kept overlapping slices")
			}
		}
	}
}

func TestDiversifyInvalidSlice(t *testing.T) {
	ds := &frame.Dataset{
		Name:     "d",
		X0:       frame.NewIntMatrix(1, 1),
		Features: []frame.Feature{{Name: "f", Domain: 1}},
	}
	ds.X0.Set(0, 0, 1)
	bad := []Slice{{Predicates: []Predicate{{Feature: 9, Value: 1}}}}
	if _, err := Diversify(ds, bad, 0.5); err == nil {
		t.Fatal("expected error for invalid predicate")
	}
}
