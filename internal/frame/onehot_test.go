package frame

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallDataset() *Dataset {
	// Two features: f1 with domain 2, f2 with domain 3.
	x := NewIntMatrix(3, 2)
	x.Set(0, 0, 1)
	x.Set(0, 1, 2)
	x.Set(1, 0, 2)
	x.Set(1, 1, 3)
	x.Set(2, 0, 1)
	x.Set(2, 1, 1)
	return &Dataset{
		Name: "small",
		X0:   x,
		Features: []Feature{
			{Name: "f1", Domain: 2},
			{Name: "f2", Domain: 3},
		},
	}
}

func TestOneHotLayout(t *testing.T) {
	enc, err := OneHot(smallDataset())
	if err != nil {
		t.Fatal(err)
	}
	if enc.Width() != 5 {
		t.Fatalf("width = %d, want 5", enc.Width())
	}
	if enc.Beg[0] != 0 || enc.End[0] != 2 || enc.Beg[1] != 2 || enc.End[1] != 5 {
		t.Fatalf("offsets Beg=%v End=%v", enc.Beg, enc.End)
	}
	d := enc.X.ToDense()
	want := [][]float64{
		{1, 0, 0, 1, 0},
		{0, 1, 0, 0, 1},
		{1, 0, 1, 0, 0},
	}
	for i := range want {
		for j := range want[i] {
			if d.At(i, j) != want[i][j] {
				t.Fatalf("X[%d,%d] = %v, want %v", i, j, d.At(i, j), want[i][j])
			}
		}
	}
}

func TestOneHotRowNNZEqualsFeatures(t *testing.T) {
	enc, err := OneHot(smallDataset())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < enc.X.Rows(); i++ {
		if got := len(enc.X.RowEntries(i)); got != 2 {
			t.Fatalf("row %d nnz = %d, want 2", i, got)
		}
	}
}

func TestOneHotFeatureOfValueOf(t *testing.T) {
	enc, err := OneHot(smallDataset())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ col, feat, val int }{
		{0, 0, 1}, {1, 0, 2}, {2, 1, 1}, {3, 1, 2}, {4, 1, 3},
	}
	for _, c := range cases {
		if got := enc.FeatureOf(c.col); got != c.feat {
			t.Errorf("FeatureOf(%d) = %d, want %d", c.col, got, c.feat)
		}
		if got := enc.ValueOf(c.col); got != c.val {
			t.Errorf("ValueOf(%d) = %d, want %d", c.col, got, c.val)
		}
	}
}

func TestOneHotRejectsInvalidDataset(t *testing.T) {
	ds := smallDataset()
	ds.X0.Set(0, 0, 99)
	if _, err := OneHot(ds); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestOneHotDecodesBack checks the fundamental round-trip property on random
// datasets: decoding the one-hot row recovers X0 exactly.
func TestOneHotDecodesBack(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(20), 1+rng.Intn(6)
		ds := &Dataset{Name: "rand", X0: NewIntMatrix(n, m), Features: make([]Feature, m)}
		for j := 0; j < m; j++ {
			dom := 1 + rng.Intn(5)
			ds.Features[j] = Feature{Name: "f", Domain: dom}
			for i := 0; i < n; i++ {
				ds.X0.Set(i, j, 1+rng.Intn(dom))
			}
		}
		enc, err := OneHot(ds)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			cols := enc.X.RowEntries(i)
			if len(cols) != m {
				return false
			}
			for _, c := range cols {
				j := enc.FeatureOf(c)
				if enc.ValueOf(c) != ds.X0.At(i, j) {
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
