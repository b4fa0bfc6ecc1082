package sliceline_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"sliceline"
)

// optDataset builds a small deterministic dataset through the public API.
func optDataset(t *testing.T) (*sliceline.Dataset, []float64) {
	t.Helper()
	csv := strings.NewReader(
		"color,shape,y\n" +
			strings.Repeat("red,circle,1\nred,square,0\nblue,circle,0\nblue,square,1\ngreen,circle,1\n", 40))
	ds, err := sliceline.DatasetFromCSV(csv, "y", 4)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := sliceline.TrainAndScore(ds, sliceline.TaskClassification)
	if err != nil {
		t.Fatal(err)
	}
	return ds, e
}

// TestRunContextOptionsMatchConfig: an option must produce the same result
// as setting the corresponding Config field, and unit weights through
// WithWeights the same result as no weights.
func TestRunContextOptionsMatchConfig(t *testing.T) {
	ds, e := optDataset(t)
	ctx := context.Background()
	want, err := sliceline.RunContext(ctx, ds, e, sliceline.Config{
		K: 3, Sigma: 5, Alpha: 0.9, MaxLevel: 2, Budget: time.Hour, Significance: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, len(e))
	for i := range ones {
		ones[i] = 1
	}
	got, err := sliceline.RunContext(ctx, ds, e, sliceline.Config{K: 3, Sigma: 5, Alpha: 0.9},
		sliceline.WithMaxLevel(2), sliceline.WithBudget(time.Hour), sliceline.WithSignificance(0.1),
		sliceline.WithWeights(ones))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.TopK) != len(want.TopK) || len(got.Levels) != len(want.Levels) {
		t.Fatalf("top-K size %d vs %d, levels %d vs %d", len(got.TopK), len(want.TopK), len(got.Levels), len(want.Levels))
	}
	for i := range want.TopK {
		g, w := got.TopK[i], want.TopK[i]
		if g.Score != w.Score || g.Size != w.Size || g.QValue != w.QValue || g.Significant != w.Significant {
			t.Fatalf("slice %d differs between options and Config fields: %+v vs %+v", i, g, w)
		}
	}
}

// TestRunContextCancellation: a pre-cancelled context must abort the run.
func TestRunContextCancellation(t *testing.T) {
	ds, e := optDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sliceline.RunContext(ctx, ds, e, sliceline.Config{K: 3, Sigma: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestOptionsWireObservability: WithTracer and WithMetrics must thread the
// observers through to the enumeration.
func TestOptionsWireObservability(t *testing.T) {
	ds, e := optDataset(t)
	tr := sliceline.NewJSONTracer()
	reg := sliceline.NewMetrics()
	res, err := sliceline.RunContext(context.Background(), ds, e, sliceline.Config{K: 3, Sigma: 5},
		sliceline.WithTracer(tr), sliceline.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	var sawRun, sawLevel bool
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "core.run":
			sawRun = true
		case "core.level":
			sawLevel = true
		}
	}
	if !sawRun || !sawLevel {
		t.Fatalf("tracer missing run/level spans (run=%v level=%v)", sawRun, sawLevel)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "sl_core_runs_total 1") {
		t.Fatalf("metrics registry not wired:\n%s", b.String())
	}
	_ = res
}

// TestWithResume: checkpoint options must round-trip through a resumed run.
func TestWithResume(t *testing.T) {
	ds, e := optDataset(t)
	path := t.TempDir() + "/run.ck"
	first, err := sliceline.RunContext(context.Background(), ds, e, sliceline.Config{K: 3, Sigma: 5},
		sliceline.WithCheckpoint(path))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sliceline.RunContext(context.Background(), ds, e, sliceline.Config{K: 3, Sigma: 5},
		sliceline.WithResume(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.TopK) != len(first.TopK) {
		t.Fatalf("resumed top-K size %d vs %d", len(resumed.TopK), len(first.TopK))
	}
	for i := range first.TopK {
		if resumed.TopK[i].Score != first.TopK[i].Score {
			t.Fatalf("resumed slice %d differs", i)
		}
	}
}

// TestPublicSentinels: the re-exported sentinels must match what RunContext
// and RunDiffContext return.
func TestPublicSentinels(t *testing.T) {
	ds, e := optDataset(t)
	ctx := context.Background()
	if _, err := sliceline.RunContext(ctx, ds, e[:3], sliceline.Config{}); !errors.Is(err, sliceline.ErrBadErrorVector) {
		t.Fatalf("got %v, want ErrBadErrorVector", err)
	}
	if _, err := sliceline.RunContext(ctx, ds, e, sliceline.Config{Alpha: math.NaN()}); !errors.Is(err, sliceline.ErrBadAlpha) {
		t.Fatalf("got %v, want ErrBadAlpha", err)
	}
	if _, err := sliceline.RunContext(ctx, ds, e, sliceline.Config{}, sliceline.WithWeights(e[:3])); !errors.Is(err, sliceline.ErrBadWeight) {
		t.Fatalf("got %v, want ErrBadWeight", err)
	}
	if _, err := sliceline.RunDiffContext(ctx, ds, e, e, sliceline.Config{}, sliceline.WithWeights(e)); !errors.Is(err, sliceline.ErrBadWeight) {
		t.Fatalf("got %v, want ErrBadWeight", err)
	}
	if err := (sliceline.Config{K: 2, Alpha: 0.5}).Validate(); err != nil {
		t.Fatalf("Validate on a valid config: %v", err)
	}
}
