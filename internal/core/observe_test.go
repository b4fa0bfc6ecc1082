package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// evalAllocFixture builds the state and candidate level used by the
// nil-observer allocation proofs: the instrumented evalSlices must cost
// exactly as many allocations as the bare kernel plus scoring loop.
func evalAllocFixture(tb testing.TB) (*state, *level) {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	ds, e := randomDataset(rng, 500, 5, 4)
	enc, err := frame.OneHot(ds)
	if err != nil {
		tb.Fatal(err)
	}
	var pairs [][]int
	for c1 := 0; c1 < enc.Width(); c1++ {
		for c2 := c1 + 1; c2 < enc.Width(); c2++ {
			if enc.FeatureOf(c1) != enc.FeatureOf(c2) {
				pairs = append(pairs, []int{c1, c2})
			}
		}
	}
	cfg := Config{K: 4, Sigma: 10, Alpha: 0.95}.WithDefaults(len(e))
	st := &state{
		cfg:    cfg,
		sc:     newScorer(len(e), e, cfg.Alpha, cfg.Sigma),
		x:      enc.X,
		e:      e,
		kernel: NewKernel(enc.X, e, nil),
	}
	lv := &level{
		cols: pairs,
		sc:   make([]float64, len(pairs)),
		se:   make([]float64, len(pairs)),
		sm:   make([]float64, len(pairs)),
		ss:   make([]float64, len(pairs)),
	}
	return st, lv
}

func zeroLevel(lv *level) {
	for i := range lv.cols {
		lv.sc[i], lv.se[i], lv.sm[i], lv.ss[i] = 0, 0, 0, 0
	}
}

// TestEvalSlicesNilObserversAddZeroAllocs is the acceptance contract of the
// observability layer: with a nil tracer and nil metrics, the instrumented
// evaluation path allocates exactly what the bare kernel allocates — the
// instrumentation adds zero allocations per call.
func TestEvalSlicesNilObserversAddZeroAllocs(t *testing.T) {
	old := matrix.SetMaxWorkers(1) // serial kernel: deterministic allocations
	defer matrix.SetMaxWorkers(old)
	st, lv := evalAllocFixture(t)
	ctx := context.Background()

	base := testing.AllocsPerRun(20, func() {
		zeroLevel(lv)
		st.kernel.Eval(lv.cols, 2, lv.ss, lv.se, lv.sm)
		for i := range lv.sc {
			lv.sc[i] = st.sc.score(lv.ss[i], lv.se[i])
		}
	})
	inst := testing.AllocsPerRun(20, func() {
		zeroLevel(lv)
		if err := st.evalSlices(ctx, lv, 2); err != nil {
			t.Fatal(err)
		}
	})
	if inst != base {
		t.Fatalf("instrumented evalSlices allocates %v/run vs %v/run bare: instrumentation must add 0", inst, base)
	}
}

// BenchmarkEvalSlicesNilObservers exposes the nil-observer eval path to
// `go test -bench` with an allocation report, next to the bare-kernel
// benchmarks of eval_bench_test.go for direct comparison.
func BenchmarkEvalSlicesNilObservers(b *testing.B) {
	st, lv := evalAllocFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zeroLevel(lv)
		if err := st.evalSlices(ctx, lv, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// TestValidateSentinels: every validation failure must be matchable with
// errors.Is against its typed sentinel.
func TestValidateSentinels(t *testing.T) {
	if err := (Config{Alpha: math.NaN()}).Validate(); !errors.Is(err, ErrBadAlpha) {
		t.Fatalf("NaN alpha: got %v, want ErrBadAlpha", err)
	}
	if err := (Config{Alpha: math.Inf(1)}).Validate(); !errors.Is(err, ErrBadAlpha) {
		t.Fatalf("Inf alpha: got %v, want ErrBadAlpha", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	if err := (Config{Alpha: 0.5, K: 8}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	rng := rand.New(rand.NewSource(21))
	ds, e := randomDataset(rng, 60, 3, 3)

	if _, err := runDS(ds, e[:10], nil, Config{}); !errors.Is(err, ErrBadErrorVector) {
		t.Fatalf("short error vector: got %v, want ErrBadErrorVector", err)
	}
	bad := append([]float64(nil), e...)
	bad[3] = -1
	if _, err := runDS(ds, bad, nil, Config{}); !errors.Is(err, ErrBadErrorVector) {
		t.Fatalf("negative error: got %v, want ErrBadErrorVector", err)
	}
	w := make([]float64, len(e))
	if _, err := runDS(ds, e, w[:5], Config{}); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("short weights: got %v, want ErrBadWeight", err)
	}
	if _, err := runDS(ds, e, w, Config{}); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("zero weight: got %v, want ErrBadWeight", err)
	}
	for i := range w {
		w[i] = 1
	}
	if _, err := runDS(ds, e, w, Config{Evaluator: stubEvaluator{}}); !errors.Is(err, ErrWeightedEvaluator) {
		t.Fatalf("weighted external evaluator: got %v, want ErrWeightedEvaluator", err)
	}
	if _, err := runDS(ds, e, nil, Config{Alpha: math.NaN()}); !errors.Is(err, ErrBadAlpha) {
		t.Fatalf("Run must call Validate: got %v, want ErrBadAlpha", err)
	}
	empty := &frame.Dataset{Name: "empty", X0: frame.NewIntMatrix(0, 1), Features: []frame.Feature{{Name: "f", Domain: 1}}}
	if _, err := runDS(empty, nil, nil, Config{}); !errors.Is(err, ErrEmptyDataset) {
		t.Fatalf("empty dataset: got %v, want ErrEmptyDataset", err)
	}
}

// stubEvaluator satisfies ExternalEvaluator for validation tests.
type stubEvaluator struct{}

func (stubEvaluator) Setup(context.Context, *matrix.CSR, []float64) error { return nil }
func (stubEvaluator) Eval(context.Context, [][]int, int) ([]float64, []float64, []float64, error) {
	return nil, nil, nil, nil
}

// TestCoreTracingAndMetrics runs an instrumented enumeration and checks that
// every lattice level produced a span under the run span, evaluation spans
// parent under their level, checkpointing is traced, and the metric counters
// agree with the result's own statistics.
func TestCoreTracingAndMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ds, e := randomDataset(rng, 400, 5, 4)
	tr := obs.NewJSONTracer()
	reg := obs.NewRegistry()
	cfg := Config{
		K: 4, Sigma: 8, Alpha: 0.95,
		Tracer: tr, Metrics: reg,
		CheckpointPath: filepath.Join(t.TempDir(), "run.ck"),
	}
	res, err := runDS(ds, e, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) < 2 {
		t.Fatalf("fixture too small: only %d levels", len(res.Levels))
	}

	spans := tr.Spans()
	byName := map[string][]*obs.Span{}
	byID := map[uint64]*obs.Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.ID] = s
	}
	if len(byName["core.run"]) != 1 {
		t.Fatalf("got %d core.run spans, want 1", len(byName["core.run"]))
	}
	run := byName["core.run"][0]
	levels := byName["core.level"]
	if len(levels) != len(res.Levels) {
		t.Fatalf("got %d level spans for %d result levels", len(levels), len(res.Levels))
	}
	seen := map[int64]bool{}
	for _, ls := range levels {
		if ls.Parent != run.ID {
			t.Fatalf("level span %d not parented under the run span", ls.ID)
		}
		seen[ls.AttrInt("level", -1)] = true
	}
	for _, l := range res.Levels {
		if !seen[int64(l.Level)] {
			t.Fatalf("no span for lattice level %d", l.Level)
		}
	}
	evals := byName["core.eval"]
	if len(evals) == 0 {
		t.Fatal("no core.eval spans recorded")
	}
	for _, es := range evals {
		parent, ok := byID[es.Parent]
		if !ok || parent.Name != "core.level" {
			t.Fatalf("eval span parented under %v, want a core.level span", es.Parent)
		}
	}
	if len(byName["core.checkpoint.save"]) == 0 {
		t.Fatal("no checkpoint save spans recorded")
	}
	if got := run.AttrInt("levels", -1); got != int64(len(res.Levels)) {
		t.Fatalf("run span levels attr = %d, want %d", got, len(res.Levels))
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"sl_core_runs_total 1",
		"sl_core_candidates_total",
		"sl_core_level_seconds_count",
		"sl_core_checkpoint_saves_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
	if got := reg.Counter("sl_core_candidates_total", "").Value(); got != int64(res.TotalCandidates()) {
		t.Fatalf("candidates counter %d vs result total %d", got, res.TotalCandidates())
	}
}

// TestDroppedParentsAttr checks the dropped_parents attribute of the
// core.level spans: on a default run the join's input filter drops parents
// whose own score bound cannot beat sc_k, and without score pruning it drops
// none.
func TestDroppedParentsAttr(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ds, e := randomDataset(rng, 400, 5, 4)
	for _, noScore := range []bool{false, true} {
		tr := obs.NewJSONTracer()
		cfg := Config{K: 4, Sigma: 8, Alpha: 0.95, DisableScorePruning: noScore, Tracer: tr}
		if _, err := runDS(ds, e, nil, cfg); err != nil {
			t.Fatal(err)
		}
		dropped, levels := int64(0), 0
		for _, s := range tr.Spans() {
			if s.Name != "core.level" || s.AttrInt("level", -1) < 2 {
				continue // level 1 has no join
			}
			n := s.AttrInt("dropped_parents", -1)
			if n < 0 {
				t.Fatalf("DisableScorePruning %v: level %d span has no dropped_parents", noScore, s.AttrInt("level", -1))
			}
			dropped += n
			levels++
		}
		if levels < 2 || (noScore && dropped != 0) || (!noScore && dropped == 0) {
			t.Fatalf("DisableScorePruning %v: %d parents dropped over %d levels", noScore, dropped, levels)
		}
	}
}

// TestTruncatedLevelKeepsDroppedParents: a level whose join exceeds
// MaxCandidatesPerLevel still reports the parents the join's input filter
// dropped. The filter runs before the join, so the count equals the
// uncapped run's for that level.
func TestTruncatedLevelKeepsDroppedParents(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ds, e := randomDataset(rng, 400, 5, 4)
	level3 := func(capped int) (*obs.Span, *Result) {
		t.Helper()
		tr := obs.NewJSONTracer()
		res, err := runDS(ds, e, nil, Config{K: 4, Sigma: 8, Alpha: 0.95, MaxLevel: 3, MaxCandidatesPerLevel: capped, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range tr.Spans() {
			if s.Name == "core.level" && s.AttrInt("level", -1) == 3 {
				return s, res
			}
		}
		t.Fatalf("cap %d: no level-3 span", capped)
		return nil, nil
	}
	full, res := level3(0)
	if res.Truncated || len(res.Levels) < 3 {
		t.Fatalf("uncapped run: truncated %v after %d levels", res.Truncated, len(res.Levels))
	}
	want := full.AttrInt("dropped_parents", -1)
	if want <= 0 {
		t.Fatalf("uncapped level 3 dropped %d parents; the test needs some", want)
	}
	// Level 3 deduplicates, so it generates its candidates plus the pruned
	// ones; one fewer truncates it, and levels 1–2 stay within the cap.
	l3 := res.Levels[2]
	budget := l3.Candidates + l3.Pruned - 1
	for _, ls := range res.Levels[:2] {
		if ls.Candidates+ls.Pruned > budget {
			t.Fatalf("level %d generates %d candidates, above the level-3 cap %d", ls.Level, ls.Candidates+ls.Pruned, budget)
		}
	}
	capped, cres := level3(budget)
	if !cres.Truncated || len(cres.Levels) != 3 || cres.Levels[2].Candidates != 0 {
		t.Fatalf("cap %d: truncated %v, levels %+v; want level 3 truncated in generation", budget, cres.Truncated, cres.Levels)
	}
	if got := capped.AttrInt("dropped_parents", -1); got != want {
		t.Fatalf("truncated level 3 reports %d dropped parents, the uncapped run %d", got, want)
	}
}
