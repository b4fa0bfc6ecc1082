package core

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"sliceline/internal/frame"
)

// catFrameOf builds a categorical-only frame from row-major cells.
func catFrameOf(t *testing.T, names []string, rows [][]string) *frame.Frame {
	t.Helper()
	cols := make([]frame.Column, len(names))
	for j, name := range names {
		c := frame.Column{Name: name, Kind: frame.Categorical}
		for _, r := range rows {
			c.Strings = append(c.Strings, r[j])
		}
		cols[j] = c
	}
	fr, err := frame.NewFrame(cols)
	if err != nil {
		t.Fatalf("NewFrame: %v", err)
	}
	return fr
}

// stripElapsed zeroes the wall-clock fields so Levels can be compared.
func stripElapsed(ls []LevelStats) []LevelStats {
	out := append([]LevelStats(nil), ls...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// requireIdenticalResults asserts bit-identical top-K and identical
// enumeration counts between an incremental and a from-scratch result.
func requireIdenticalResults(t *testing.T, gen int, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.TopK, want.TopK) {
		t.Fatalf("generation %d: top-K differs:\nincremental: %+v\nfrom-scratch: %+v", gen, got.TopK, want.TopK)
	}
	if !reflect.DeepEqual(stripElapsed(got.Levels), stripElapsed(want.Levels)) {
		t.Fatalf("generation %d: level stats differ:\nincremental: %+v\nfrom-scratch: %+v",
			gen, stripElapsed(got.Levels), stripElapsed(want.Levels))
	}
	if got.N != want.N || got.AvgError != want.AvgError || got.Sigma != want.Sigma {
		t.Fatalf("generation %d: header differs: got N=%d ē=%v σ=%d, want N=%d ē=%v σ=%d",
			gen, got.N, got.AvgError, got.Sigma, want.N, want.AvgError, want.Sigma)
	}
}

// randomCatRows generates rows over m features; domains widen as gen grows so
// later batches allocate fresh one-hot columns (domain growth).
func randomCatRows(rng *rand.Rand, n, m, dom, gen int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = make([]string, m)
		for j := range rows[i] {
			if gen > 0 && rng.Intn(6) == 0 {
				rows[i][j] = "g" + strconv.Itoa(gen) + "v" + strconv.Itoa(j)
			} else {
				rows[i][j] = "v" + strconv.Itoa(rng.Intn(dom))
			}
		}
	}
	return rows
}

func randomErrs(rng *rand.Rand, n int) []float64 {
	e := make([]float64, n)
	for i := range e {
		if rng.Float64() < 0.3 {
			e[i] = 0
		} else {
			e[i] = rng.Float64()
		}
	}
	return e
}

// TestIncrementalMatchesFromScratch is the differential backstop of the
// streaming tentpole: over a seeded schedule of appends — more than five,
// several growing feature domains, and a final Run spanning several appends
// at once — the maintained top-K must be bit-identical to a from-scratch run
// over the accumulated data at every generation, as must the per-level
// enumeration counts (proof that pruning decisions replay identically, not
// just the final ranking).
func TestIncrementalMatchesFromScratch(t *testing.T) {
	names := []string{"dev", "os", "region"}
	for _, seed := range []int64{1, 7, 99} {
		rng := rand.New(rand.NewSource(seed))
		base := randomCatRows(rng, 60, len(names), 3, 0)
		ds, err := frame.FromFrame(catFrameOf(t, names, base), "", 5)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := frame.OneHot(ds)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := frame.NewAppender(ds, enc)
		if err != nil {
			t.Fatal(err)
		}
		e := randomErrs(rng, len(base))
		cfg := Config{K: 4, Sigma: 5, Alpha: 0.9}
		inc, err := NewIncremental(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		grown := 0
		appendBatch := func(gen int, batch [][]string) {
			res, err := ap.AppendRows(batch)
			if err != nil {
				t.Fatalf("seed %d gen %d: AppendRows: %v", seed, gen, err)
			}
			if res.Grown != nil {
				grown++
			}
			e = append(e, randomErrs(rng, res.NewRows)...)
		}
		check := func(gen int) {
			got, err := inc.Run(ctx, ap.Encoding(), ap.Dataset().Features, e)
			if err != nil {
				t.Fatalf("seed %d gen %d: incremental run: %v", seed, gen, err)
			}
			want, err := Run(ctx, ap.Encoding(), ap.Dataset().Features, e, nil, cfg)
			if err != nil {
				t.Fatalf("seed %d gen %d: reference run: %v", seed, gen, err)
			}
			requireIdenticalResults(t, gen, got, want)
		}
		for gen := 0; gen <= 6; gen++ {
			if gen > 0 {
				appendBatch(gen, randomCatRows(rng, 5+rng.Intn(10), len(names), 3, gen))
			}
			check(gen)
		}
		if grown == 0 {
			t.Fatalf("seed %d: schedule never grew a domain; test is too weak", seed)
		}
		// One Run spanning three appends, the middle one growing a domain,
		// folds them in as a single step.
		for gen := 7; gen <= 9; gen++ {
			batch := randomCatRows(rng, 4, len(names), 3, 0)
			if gen == 8 {
				batch[0][1] = "span-new"
			}
			appendBatch(gen, batch)
		}
		check(9)
	}
}

// TestIncrementalMemoReuse: the second generation must continue most level>=2
// candidates from the memo instead of rescanning from row 0.
func TestIncrementalMemoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"a", "b", "c"}
	base := randomCatRows(rng, 80, len(names), 3, 0)
	ds, err := frame.FromFrame(catFrameOf(t, names, base), "", 5)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := frame.NewAppender(ds, enc)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(Config{K: 4, Sigma: 4, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	e := randomErrs(rng, len(base))
	if _, err := inc.Run(context.Background(), enc, ds.Features, e); err != nil {
		t.Fatal(err)
	}
	st := inc.Stats()
	if st.Entries == 0 || st.Misses == 0 {
		t.Fatalf("first run: entries=%d misses=%d, want > 0", st.Entries, st.Misses)
	}
	if st.Hits != 0 {
		t.Fatalf("first run: hits=%d, want 0", st.Hits)
	}
	res, err := ap.AppendRows(randomCatRows(rng, 6, len(names), 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	e = append(e, randomErrs(rng, res.NewRows)...)
	if _, err := inc.Run(context.Background(), res.Enc, res.DS.Features, e); err != nil {
		t.Fatal(err)
	}
	st2 := inc.Stats()
	if st2.Hits == 0 {
		t.Fatal("second run: no memo hits")
	}
	if st2.Rows != 86 {
		t.Fatalf("stats = %+v", st2)
	}
}

func TestIncrementalRejectsConfigs(t *testing.T) {
	for name, cfg := range map[string]Config{
		"external":   {Evaluator: stubEvaluator{}},
		"priority":   {PriorityEnumeration: true},
		"checkpoint": {CheckpointPath: t.TempDir() + "/ck"},
		"resume":     {Resume: true},
	} {
		if _, err := NewIncremental(cfg); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestIncrementalRunValidation: Run accepts only a generation that extends
// the one before it, and a rejected generation leaves the memo as it was —
// the next valid generation still matches a from-scratch run.
func TestIncrementalRunValidation(t *testing.T) {
	ctx := context.Background()
	names := []string{"f"}
	base := [][]string{{"a"}, {"b"}, {"a"}}
	ds, err := frame.FromFrame(catFrameOf(t, names, base), "", 5)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := frame.NewAppender(ds, enc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Sigma: 1}
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Run(ctx, enc, ds.Features, []float64{0, 1}); err == nil {
		t.Error("short errors on the first generation: want error")
	}
	e0 := []float64{0, 1, 0}
	if _, err := inc.Run(ctx, enc, ds.Features, e0); err != nil {
		t.Fatalf("base generation: %v", err)
	}
	g1, err := ap.AppendRows([][]string{{"b"}, {"c"}}) // grows the domain
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := frame.FromFrame(catFrameOf(t, names, [][]string{{"a"}, {"a"}, {"a"}, {"a"}, {"a"}}), "", 5)
	if err != nil {
		t.Fatal(err)
	}
	narrowEnc, err := frame.OneHot(narrow)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		enc   *frame.Encoding
		feats []frame.Feature
		e     []float64
	}{
		"short errors":        {g1.Enc, g1.DS.Features, []float64{0, 1, 0, 1}},
		"negative error":      {g1.Enc, g1.DS.Features, []float64{0, 1, 0, 1, -2}},
		"rewritten old error": {g1.Enc, g1.DS.Features, []float64{0, 0.5, 0, 1, 0.5}},
		"narrower domain":     {narrowEnc, narrow.Features, []float64{0, 1, 0, 1, 0.5}},
	} {
		if _, err := inc.Run(ctx, c.enc, c.feats, c.e); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	e1 := []float64{0, 1, 0, 1, 0.5}
	g2, err := ap.AppendRows([][]string{{"c"}})
	if err != nil {
		t.Fatal(err)
	}
	e2 := append(append([]float64(nil), e1...), 0.25)
	if _, err := inc.Run(ctx, g2.Enc, g2.DS.Features, e2); err != nil {
		t.Fatalf("valid generation after rejections: %v", err)
	}
	if _, err := inc.Run(ctx, g1.Enc, g1.DS.Features, e1); err == nil {
		t.Error("replayed generation: want error")
	}
	if _, err := inc.Run(ctx, enc, ds.Features, e0); err == nil {
		t.Error("older generation: want error")
	}
	got, err := inc.Run(ctx, g2.Enc, g2.DS.Features, e2)
	if err != nil {
		t.Fatalf("current generation again: %v", err)
	}
	want, err := Run(ctx, g2.Enc, g2.DS.Features, e2, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, 2, got, want)
}
