package core

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// TestResultJSONRoundTrip: the CLI's -json output must carry the full
// result faithfully.
func TestResultJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	ds, e := randomDataset(rng, 120, 3, 3)
	res, err := runDS(ds, e, nil, Config{K: 4, Sigma: 3, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != res.N || back.Sigma != res.Sigma || len(back.TopK) != len(res.TopK) {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	for i := range res.TopK {
		if back.TopK[i].Score != res.TopK[i].Score || back.TopK[i].Size != res.TopK[i].Size {
			t.Fatalf("slice %d differs after round trip", i)
		}
		if len(back.TopK[i].Predicates) != len(res.TopK[i].Predicates) {
			t.Fatalf("slice %d predicates lost", i)
		}
	}
	if len(back.Levels) != len(res.Levels) {
		t.Fatal("level stats lost")
	}
}

func TestSliceStringFormat(t *testing.T) {
	s := Slice{
		Predicates: []Predicate{{Name: "a", Value: 1}, {Name: "b", Value: 2}},
		Score:      1.5, Size: 10, AvgError: 0.25,
	}
	got := s.String()
	want := "[a=1 AND b=2] score=1.5000 size=10 avgErr=0.2500"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestConfigAlphaClamped(t *testing.T) {
	cfg := Config{Alpha: 5}.WithDefaults(100)
	if cfg.Alpha != 1 {
		t.Fatalf("alpha = %v, want clamped to 1", cfg.Alpha)
	}
}
