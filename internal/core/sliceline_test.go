package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sliceline/internal/fptol"
	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// randomDataset builds a small random dataset plus a non-negative error
// vector, suitable for exhaustive cross-checking.
func randomDataset(rng *rand.Rand, n, m, maxDom int) (*frame.Dataset, []float64) {
	ds := &frame.Dataset{
		Name:     "rand",
		X0:       frame.NewIntMatrix(n, m),
		Features: make([]frame.Feature, m),
	}
	for j := 0; j < m; j++ {
		dom := 2 + rng.Intn(maxDom-1)
		ds.Features[j] = frame.Feature{Name: featureName(j), Domain: dom}
		for i := 0; i < n; i++ {
			ds.X0.Set(i, j, 1+rng.Intn(dom))
		}
	}
	e := make([]float64, n)
	for i := range e {
		if rng.Float64() < 0.3 {
			e[i] = 0 // mix in exact zeros: correct models are common
		} else {
			e[i] = rng.Float64()
		}
	}
	return ds, e
}

func featureName(j int) string { return string(rune('a' + j)) }

// runDS runs Run over the one-hot encoding of ds (w == nil: unit weights).
func runDS(ds *frame.Dataset, e, w []float64, cfg Config) (*Result, error) {
	enc, err := frame.OneHot(ds)
	if err != nil {
		return nil, err
	}
	return Run(context.Background(), enc, ds.Features, e, w, cfg)
}

func scoresOf(slices []Slice) []float64 {
	out := make([]float64, len(slices))
	for i, s := range slices {
		out[i] = s.Score
	}
	return out
}

// approxEqualScores compares rank-aligned scores under the shared ULP
// tolerance of internal/fptol: scores are order-dependent float64
// summations, so different evaluation plans (and brute force) legitimately
// differ in the last ULPs while agreeing on every ranking decision.
func approxEqualScores(a, b []float64) bool {
	return fptol.DefaultTol.CloseSlices(a, b)
}

// TestExactnessAgainstBruteForce is the repository's central correctness
// test: on random datasets, the pruned linear-algebra enumerator must return
// exactly the same top-K scores as exhaustive lattice enumeration — the
// paper's exactness guarantee.
func TestExactnessAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 60
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 50 + rng.Intn(150)
		m := 2 + rng.Intn(4)
		ds, e := randomDataset(rng, n, m, 4)
		cfg := Config{
			K:     1 + rng.Intn(6),
			Sigma: 2 + rng.Intn(10),
			Alpha: 0.3 + 0.69*rng.Float64(),
		}
		got, err := runDS(ds, e, nil, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := BruteForce(ds, e, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !approxEqualScores(scoresOf(got.TopK), scoresOf(want)) {
			t.Fatalf("trial %d (n=%d m=%d K=%d sigma=%d alpha=%v):\nsliceline scores %v\nbruteforce scores %v",
				trial, n, m, cfg.K, cfg.Sigma, cfg.Alpha,
				scoresOf(got.TopK), scoresOf(want))
		}
	}
}

// TestExactnessWithMaxLevel verifies that ⌈L⌉-capped runs match brute force
// capped at the same depth.
func TestExactnessWithMaxLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		ds, e := randomDataset(rng, 120, 5, 3)
		cfg := Config{K: 4, Sigma: 3, Alpha: 0.9, MaxLevel: 2}
		got, err := runDS(ds, e, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForce(ds, e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !approxEqualScores(scoresOf(got.TopK), scoresOf(want)) {
			t.Fatalf("trial %d: %v vs %v", trial, scoresOf(got.TopK), scoresOf(want))
		}
	}
}

// TestPruningDoesNotChangeTopK compares all ablation configurations against
// the fully pruned run: pruning must only affect work, never results.
func TestPruningDoesNotChangeTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		ds, e := randomDataset(rng, 100, 4, 3)
		base := Config{K: 5, Sigma: 3, Alpha: 0.85}
		ref, err := runDS(ds, e, nil, base)
		if err != nil {
			t.Fatal(err)
		}
		variants := []Config{
			{K: 5, Sigma: 3, Alpha: 0.85, DisableParentHandling: true},
			{K: 5, Sigma: 3, Alpha: 0.85, DisableParentHandling: true, DisableScorePruning: true},
			{K: 5, Sigma: 3, Alpha: 0.85, DisableParentHandling: true, DisableScorePruning: true, DisableSizePruning: true},
			{K: 5, Sigma: 3, Alpha: 0.85, DisableParentHandling: true, DisableScorePruning: true, DisableSizePruning: true, DisableDedup: true},
		}
		for vi, vc := range variants {
			got, err := runDS(ds, e, nil, vc)
			if err != nil {
				t.Fatal(err)
			}
			if !approxEqualScores(scoresOf(got.TopK), scoresOf(ref.TopK)) {
				t.Fatalf("trial %d variant %d: %v vs ref %v", trial, vi, scoresOf(got.TopK), scoresOf(ref.TopK))
			}
		}
	}
}

// TestPruningReducesCandidates: enabling pruning must never evaluate more
// candidates than the unpruned run (the Figure 3 effect).
func TestPruningReducesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds, e := randomDataset(rng, 200, 5, 3)
	pruned, err := runDS(ds, e, nil, Config{K: 4, Sigma: 4, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := runDS(ds, e, nil, Config{
		K: 4, Sigma: 4, Alpha: 0.9,
		DisableParentHandling: true, DisableScorePruning: true,
		DisableSizePruning: true, DisableDedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.TotalCandidates() > unpruned.TotalCandidates() {
		t.Fatalf("pruned evaluates %d > unpruned %d", pruned.TotalCandidates(), unpruned.TotalCandidates())
	}
}

func TestRunValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds, e := randomDataset(rng, 20, 2, 3)
	if _, err := runDS(ds, e[:10], nil, Config{}); err == nil {
		t.Error("expected error for short error vector")
	}
	e[3] = -1
	if _, err := runDS(ds, e, nil, Config{}); err == nil {
		t.Error("expected error for negative error value")
	}
}

func TestRunEmptyDataset(t *testing.T) {
	ds := &frame.Dataset{Name: "empty", X0: frame.NewIntMatrix(0, 1), Features: []frame.Feature{{Name: "f", Domain: 1}}}
	if _, err := runDS(ds, nil, nil, Config{}); err == nil {
		t.Error("expected error for empty dataset")
	}
}

func TestRunDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ds, e := randomDataset(rng, 5000, 3, 4)
	res, err := runDS(ds, e, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sigma != 50 {
		t.Errorf("default sigma = %d, want ceil(5000/100) = 50", res.Sigma)
	}
	if res.Alpha != DefaultAlpha {
		t.Errorf("default alpha = %v, want %v", res.Alpha, DefaultAlpha)
	}
	if len(res.TopK) > DefaultK {
		t.Errorf("topK = %d, want <= %d", len(res.TopK), DefaultK)
	}
}

func TestRunSigmaFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds, e := randomDataset(rng, 100, 2, 3)
	res, err := runDS(ds, e, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sigma != 32 {
		t.Errorf("sigma = %d, want floor 32 for small n", res.Sigma)
	}
}

func TestResultSlicesRespectConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		ds, e := randomDataset(rng, 150, 4, 3)
		cfg := Config{K: 8, Sigma: 5, Alpha: 0.9}
		res, err := runDS(ds, e, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(1)
		for _, s := range res.TopK {
			if s.Score <= 0 {
				t.Errorf("slice score %v <= 0", s.Score)
			}
			if s.Size < cfg.Sigma {
				t.Errorf("slice size %d < sigma %d", s.Size, cfg.Sigma)
			}
			if s.Score > prev+1e-12 {
				t.Errorf("scores not descending: %v after %v", s.Score, prev)
			}
			prev = s.Score
			// Predicates reference distinct features with in-domain values.
			seen := map[int]bool{}
			for _, p := range s.Predicates {
				if seen[p.Feature] {
					t.Errorf("duplicate feature %d in slice", p.Feature)
				}
				seen[p.Feature] = true
				if p.Value < 1 || p.Value > ds.Features[p.Feature].Domain {
					t.Errorf("predicate value %d out of domain", p.Value)
				}
			}
		}
	}
}

// TestSliceStatsMatchDirectScan recomputes each returned slice's statistics
// by direct filtering and compares.
func TestSliceStatsMatchDirectScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds, e := randomDataset(rng, 300, 4, 4)
	res, err := runDS(ds, e, nil, Config{K: 6, Sigma: 3, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) == 0 {
		t.Skip("no qualifying slices in this draw")
	}
	for si, s := range res.TopK {
		ss, se, sm := 0, 0.0, 0.0
		for i := 0; i < ds.NumRows(); i++ {
			match := true
			for _, p := range s.Predicates {
				if ds.X0.At(i, p.Feature) != p.Value {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			ss++
			se += e[i]
			if e[i] > sm {
				sm = e[i]
			}
		}
		if ss != s.Size {
			t.Errorf("slice %d: size %d, scan says %d", si, s.Size, ss)
		}
		if math.Abs(se-s.TotalError) > 1e-9 {
			t.Errorf("slice %d: se %v, scan says %v", si, s.TotalError, se)
		}
		if math.Abs(sm-s.MaxError) > 1e-12 {
			t.Errorf("slice %d: sm %v, scan says %v", si, s.MaxError, sm)
		}
	}
}

func TestLevelStatsMonotoneElapsed(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ds, e := randomDataset(rng, 200, 5, 3)
	res, err := runDS(ds, e, nil, Config{K: 4, Sigma: 3, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) == 0 {
		t.Fatal("no level stats recorded")
	}
	if res.Levels[0].Level != 1 {
		t.Errorf("first level = %d, want 1", res.Levels[0].Level)
	}
	for i := 1; i < len(res.Levels); i++ {
		if res.Levels[i].Elapsed < res.Levels[i-1].Elapsed {
			t.Errorf("elapsed not monotone at level %d", res.Levels[i].Level)
		}
		if res.Levels[i].Level != res.Levels[i-1].Level+1 {
			t.Errorf("levels not consecutive at %d", i)
		}
	}
}

func TestMaxCandidatesTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ds, e := randomDataset(rng, 200, 6, 4)
	res, err := runDS(ds, e, nil, Config{
		K: 4, Sigma: 1, Alpha: 0.99,
		DisableSizePruning: true, DisableScorePruning: true,
		DisableParentHandling: true, DisableDedup: true,
		MaxCandidatesPerLevel: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("expected truncation with tiny candidate budget")
	}
}

// TestMaxCandidatesBoundary pins what MaxCandidatesPerLevel counts: the
// candidates a level generates before pruning, that is, its distinct merged
// slices with dedup (evaluated plus pruned) and its surviving pairs without
// (evaluated). A cap equal to level 3's count keeps the run whole; one below
// it truncates at level 3 before anything there is evaluated.
func TestMaxCandidatesBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := [2]int{} // per mode: dedup, DisableDedup
	for trial := 0; trial < 1000 && (cases[0] < 10 || cases[1] < 10); trial++ {
		noDedup := trial%2 == 1
		ds, e := randomDataset(rng, 80+rng.Intn(120), 4+rng.Intn(3), 4)
		cfg := Config{
			K: 1 + rng.Intn(4), Sigma: 2 + rng.Intn(5), Alpha: 0.5 + 0.49*rng.Float64(),
			MaxLevel: 3, DisableDedup: noDedup,
		}
		full, err := runDS(ds, e, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if full.Truncated || len(full.Levels) < 3 {
			continue
		}
		l3 := full.Levels[2]
		g := l3.Candidates
		if !noDedup {
			g += l3.Pruned
		}
		if full.Levels[1].Candidates >= g-1 {
			continue // level 2 would hit the lower cap first
		}
		mode := 0
		if noDedup {
			mode = 1
		}
		cases[mode]++

		cfg.MaxCandidatesPerLevel = g
		at, err := runDS(ds, e, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if at.Truncated || !sameCounts(at.Levels, full.Levels) || !reflect.DeepEqual(scoresOf(at.TopK), scoresOf(full.TopK)) {
			t.Fatalf("trial %d (DisableDedup %v): cap %d = level 3's count changed the run: levels %+v, uncapped %+v",
				trial, noDedup, g, at.Levels, full.Levels)
		}

		cfg.MaxCandidatesPerLevel = g - 1
		below, err := runDS(ds, e, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !below.Truncated || len(below.Levels) != 3 || !sameCounts(below.Levels[:2], full.Levels[:2]) ||
			below.Levels[2].Level != 3 || below.Levels[2].Candidates != 0 {
			t.Fatalf("trial %d (DisableDedup %v): cap %d (one below level 3's count): truncated %v, levels %+v",
				trial, noDedup, g-1, below.Truncated, below.Levels)
		}
	}
	if cases[0] < 10 || cases[1] < 10 {
		t.Fatalf("fixture too thin: %d dedup and %d DisableDedup cases, want 10 each", cases[0], cases[1])
	}
}

// sameCounts compares per-level statistics without their elapsed times.
func sameCounts(a, b []LevelStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Elapsed, y.Elapsed = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// blockEvaluator runs the fused CSR kernel at block size b as an external
// evaluator: the built-in evaluation always takes the automatic size.
type blockEvaluator struct {
	b int
	x *matrix.CSR
	e []float64
}

func (ev *blockEvaluator) Setup(_ context.Context, x *matrix.CSR, e []float64) error {
	ev.x, ev.e = x, e
	return nil
}

func (ev *blockEvaluator) Eval(_ context.Context, ids []int32, level int) (ss, se, sm []float64, err error) {
	n := len(ids) / level
	ss, se, sm = make([]float64, n), make([]float64, n), make([]float64, n)
	EvalPartitionWeighted(ev.x, ev.e, nil, ids, level, ev.b, ss, se, sm)
	return ss, se, sm, nil
}

// TestBlockSizesAgree: a run must not depend on the fused CSR kernel's
// block size b (the task-parallel, blocked and one-scan plans of Section
// 4.4 are equivalent): at every b it returns the built-in evaluation's bits.
func TestBlockSizesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ds, e := randomDataset(rng, 250, 4, 4)
	cfg := Config{K: 6, Sigma: 3, Alpha: 0.9}
	ref, err := runDS(ds, e, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, 2, 7, 16, 1 << 20} {
		c := cfg
		c.Evaluator = &blockEvaluator{b: b}
		res, err := runDS(ds, e, nil, c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.TopK, ref.TopK) || !sameCounts(res.Levels, ref.Levels) || res.Gap != ref.Gap {
			t.Fatalf("block size %d: top-K %v, levels %+v, gap %v; built-in %v, %+v, %v",
				b, res.TopK, res.Levels, res.Gap, ref.TopK, ref.Levels, ref.Gap)
		}
	}
}

func TestSingleFeatureDataset(t *testing.T) {
	ds := &frame.Dataset{
		Name:     "one",
		X0:       frame.NewIntMatrix(10, 1),
		Features: []frame.Feature{{Name: "f", Domain: 2}},
	}
	e := make([]float64, 10)
	for i := 0; i < 10; i++ {
		if i < 5 {
			ds.X0.Set(i, 0, 1)
			e[i] = 1 // all error in value 1
		} else {
			ds.X0.Set(i, 0, 2)
		}
	}
	res, err := runDS(ds, e, nil, Config{K: 2, Sigma: 2, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 1 {
		t.Fatalf("topK = %d slices, want 1", len(res.TopK))
	}
	s := res.TopK[0]
	if s.Size != 5 || s.Predicates[0].Value != 1 {
		t.Fatalf("unexpected slice %v", s)
	}
}

func TestAlphaOneIgnoresSize(t *testing.T) {
	// With alpha = 1 the size term vanishes; the best slice is the one with
	// the highest average error meeting the support threshold.
	rng := rand.New(rand.NewSource(17))
	ds, e := randomDataset(rng, 150, 3, 3)
	res, err := runDS(ds, e, nil, Config{K: 3, Sigma: 5, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForce(ds, e, Config{K: 3, Sigma: 5, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqualScores(scoresOf(res.TopK), scoresOf(want)) {
		t.Fatalf("alpha=1: %v vs %v", scoresOf(res.TopK), scoresOf(want))
	}
}

// allocatedBytes returns the fewest bytes any of three calls of f allocated.
func allocatedBytes(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for r := 0; r < 3; r++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestRunDroppedColumnsCopiesNoIds: a bitset-path run evaluates level 1
// through one Kernel over the full width and narrows it to the columns σ
// keeps by moving their packed words, so even when σ drops a quarter of the
// columns a run to level 2 allocates less than one copy of the kept ids
// (what X[, cI] would cost) and packs its columns once: it allocates less
// than the full width's packing plus the kept columns' packing.
func TestRunDroppedColumnsCopiesNoIds(t *testing.T) {
	const n, m = 1 << 16, 8
	rng := rand.New(rand.NewSource(12))
	ds := &frame.Dataset{Name: "rare", X0: frame.NewIntMatrix(n, m), Features: make([]frame.Feature, m)}
	for j := range ds.Features {
		ds.Features[j] = frame.Feature{Name: featureName(j), Domain: 4}
		for i := 0; i < n; i++ {
			v := 1 + rng.Intn(3)
			if rng.Float64() < 0.0005 {
				v = 4 // about 33 rows, below σ
			}
			ds.X0.Set(i, j, v)
		}
	}
	e := make([]float64, n)
	for i := range e {
		if rng.Float64() < 0.2 {
			e[i] = 1
		}
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 4, Sigma: 100, MaxLevel: 2}
	var res *Result
	got := allocatedBytes(func() {
		if res, err = Run(context.Background(), enc, ds.Features, e, nil, cfg); err != nil {
			t.Fatal(err)
		}
	})
	kept := res.Levels[0].Valid
	if len(res.Levels) != 2 || res.Levels[1].Candidates == 0 || 4*(enc.Width()-kept) < enc.Width() {
		t.Fatalf("levels %+v keep %d of %d columns; the guard needs level 2 and a quarter of the columns dropped", res.Levels, kept, enc.Width())
	}
	keptIDs := 0
	for i := 0; i < n; i++ {
		for _, c := range enc.X.RowEntries(i) {
			if enc.ValueOf(c) != 4 {
				keptIDs++
			}
		}
	}
	if idBytes := uint64(8 * keptIDs); got >= idBytes {
		t.Fatalf("Run to level 2 allocated %d bytes, want less than one copy of the kept ids (%d bytes)", got, idBytes)
	}
	words := uint64(8 * ((n + 63) / 64))
	if packs := words * uint64(enc.Width()+kept); got >= packs {
		t.Fatalf("Run to level 2 allocated %d bytes, want less than a full-width and a kept-column packing (%d bytes)", got, packs)
	}
}

// TestRunFullWidthCopiesNoIds: when every basic slice is valid, X[, cI] is
// the encoding itself, so a run to level 1 allocates less than one copy of
// the one-hot ids.
func TestRunFullWidthCopiesNoIds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds, _ := randomDataset(rng, 4096, 8, 4)
	e := make([]float64, ds.NumRows())
	for i := range e {
		e[i] = 0.5 + rng.Float64()/2 // every basic slice has error
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 4, Sigma: 1, Alpha: 0.95, MaxLevel: 1}
	var res *Result
	got := allocatedBytes(func() {
		if res, err = Run(context.Background(), enc, ds.Features, e, nil, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if res.Levels[0].Valid != enc.Width() {
		t.Fatalf("%d of %d basic slices are valid; the guard needs every column kept", res.Levels[0].Valid, enc.Width())
	}
	if idBytes := uint64(8 * enc.X.NNZ()); got >= idBytes {
		t.Fatalf("Run to level 1 allocated %d bytes, want less than one copy of the ids (%d bytes)", got, idBytes)
	}
}
