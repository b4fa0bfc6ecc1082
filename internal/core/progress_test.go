package core

import (
	"math/rand"
	"testing"
)

func TestOnLevelCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	ds, e := randomDataset(rng, 150, 4, 3)
	var seen []LevelStats
	cfg := Config{
		K: 4, Sigma: 3, Alpha: 0.9,
		OnLevel: func(ls LevelStats) { seen = append(seen, ls) },
	}
	res, err := runDS(ds, e, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Levels) {
		t.Fatalf("callback fired %d times, %d levels recorded", len(seen), len(res.Levels))
	}
	for i := range seen {
		if seen[i] != res.Levels[i] {
			t.Fatalf("callback level %d = %+v, recorded %+v", i, seen[i], res.Levels[i])
		}
	}
	if seen[0].Level != 1 {
		t.Fatalf("first callback level = %d, want 1", seen[0].Level)
	}
}
