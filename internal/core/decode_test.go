package core

import (
	"math/rand"
	"strings"
	"testing"

	"sliceline/internal/frame"
)

func TestDecodeUsesFeatureNamesAndLabels(t *testing.T) {
	ds := &frame.Dataset{
		Name: "labeled",
		X0:   frame.NewIntMatrix(40, 2),
		Features: []frame.Feature{
			{Name: "color", Domain: 2, Labels: []string{"red", "blue"}},
			{Name: "shape", Domain: 2, Labels: []string{"circle", "square"}},
		},
	}
	e := make([]float64, 40)
	for i := 0; i < 40; i++ {
		ds.X0.Set(i, 0, 1+i%2)
		ds.X0.Set(i, 1, 1+(i/2)%2)
		if i%2 == 0 && (i/2)%2 == 1 {
			e[i] = 1 // color=red AND shape=square is the bad slice
		}
	}
	res, err := runDS(ds, e, nil, Config{K: 1, Sigma: 2, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 1 {
		t.Fatalf("topK = %d, want 1", len(res.TopK))
	}
	s := res.TopK[0].String()
	if !strings.Contains(s, "color=red") || !strings.Contains(s, "shape=square") {
		t.Fatalf("decoded slice %q missing labeled predicates", s)
	}
}

func TestResultTSAndTR(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	ds, e := randomDataset(rng, 150, 3, 3)
	res, err := runDS(ds, e, nil, Config{K: 5, Sigma: 3, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) == 0 {
		t.Skip("no slices in this draw")
	}
	ts := res.TS(ds.NumFeatures())
	tr := res.TR()
	if len(ts) != len(res.TopK) || len(tr) != len(res.TopK) {
		t.Fatalf("TS/TR lengths %d/%d vs %d slices", len(ts), len(tr), len(res.TopK))
	}
	for i, s := range res.TopK {
		nonzero := 0
		for f, v := range ts[i] {
			if v == 0 {
				continue
			}
			nonzero++
			found := false
			for _, p := range s.Predicates {
				if p.Feature == f && p.Value == v {
					found = true
				}
			}
			if !found {
				t.Errorf("TS row %d has %d@%d not in predicates", i, v, f)
			}
		}
		if nonzero != len(s.Predicates) {
			t.Errorf("TS row %d has %d assignments, want %d", i, nonzero, len(s.Predicates))
		}
		if tr[i][0] != s.Score || tr[i][3] != float64(s.Size) {
			t.Errorf("TR row %d = %v does not match slice stats", i, tr[i])
		}
	}
}

func TestPredicateStringWithoutLabel(t *testing.T) {
	p := Predicate{Name: "age", Value: 3}
	if got := p.String(); got != "age=3" {
		t.Errorf("String = %q, want age=3", got)
	}
	p.Label = "[30,40)"
	if got := p.String(); got != "age=[30,40)" {
		t.Errorf("String = %q, want age=[30,40)", got)
	}
}
