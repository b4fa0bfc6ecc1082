package report

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/frame"
)

var update = flag.Bool("update", false, "rewrite golden files")

func plantedDataset(rng *rand.Rand, n int) (*frame.Dataset, []float64) {
	ds := &frame.Dataset{
		Name: "planted",
		X0:   frame.NewIntMatrix(n, 3),
		Features: []frame.Feature{
			{Name: "region", Domain: 3, Labels: []string{"north", "south", "east"}},
			{Name: "plan", Domain: 2, Labels: []string{"basic", "premium"}},
			{Name: "tier", Domain: 2},
		},
	}
	e := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			ds.X0.Set(i, j, 1+rng.Intn(ds.Features[j].Domain))
		}
		if ds.X0.At(i, 0) == 2 && ds.X0.At(i, 1) == 1 {
			e[i] = 1
		} else if rng.Float64() < 0.05 {
			e[i] = 1
		}
	}
	return ds, e
}

func TestGenerateFullReport(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds, e := plantedDataset(rng, 2000)
	var buf bytes.Buffer
	if err := Generate(&buf, ds, e, Options{K: 3, Sigma: 20, IncludeTree: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Model debugging report: planted",
		"## Dataset",
		"## Model errors",
		"## Problematic slices",
		"region=south", // the planted slice, decoded with labels
		"plan=basic",
		"## Enumeration",
		"## Non-overlapping partition",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n---\n%s", want, out)
		}
	}
}

func TestGenerateWithoutTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds, e := plantedDataset(rng, 800)
	var buf bytes.Buffer
	if err := Generate(&buf, ds, e, Options{Sigma: 10}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Non-overlapping partition") {
		t.Error("tree section present despite IncludeTree=false")
	}
}

func TestGenerateNoProblematicSlices(t *testing.T) {
	// Uniform errors: no slice scores above zero.
	ds := &frame.Dataset{
		Name:     "uniform",
		X0:       frame.NewIntMatrix(200, 2),
		Features: []frame.Feature{{Name: "a", Domain: 2}, {Name: "b", Domain: 2}},
	}
	e := make([]float64, 200)
	for i := 0; i < 200; i++ {
		ds.X0.Set(i, 0, 1+i%2)
		ds.X0.Set(i, 1, 1+(i/2)%2)
		e[i] = 0.5
	}
	var buf bytes.Buffer
	if err := Generate(&buf, ds, e, Options{Sigma: 10}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "No slice scores above 0") {
		t.Errorf("expected empty-result message:\n%s", buf.String())
	}
}

func TestGenerateFromResultJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds, e := plantedDataset(rng, 2000)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), enc, ds.Features, e, nil, core.Config{K: 3, Sigma: 20, Alpha: 0.95, MaxLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var restored core.Result
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := GenerateFromResult(&buf, "planted", &restored, Options{K: 3}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Model debugging report: planted",
		"## Stored result",
		"## Problematic slices",
		"region=south",
		"plan=basic",
		"## Enumeration",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("result-only report missing %q\n---\n%s", want, out)
		}
	}
	for _, reject := range []string{"## Dataset", "## Model errors", "example rows", "Non-overlapping partition"} {
		if strings.Contains(out, reject) {
			t.Errorf("result-only report should not contain %q\n---\n%s", reject, out)
		}
	}
}

// TestGenerateFromResultGolden pins the rendered Markdown for a result
// carrying every schema-v2 annotation: the optimality gap of a partial run,
// per-slice p/q values with a significance marker, and diff directions.
// Regenerate with `go test ./internal/report -run Golden -update`.
func TestGenerateFromResultGolden(t *testing.T) {
	res := &core.Result{
		TopK: []core.Slice{
			{
				Predicates: []core.Predicate{
					{Feature: 0, Name: "region", Value: 2, Label: "south"},
					{Feature: 1, Name: "plan", Value: 1, Label: "basic"},
				},
				Score: 1.8125, Size: 240, TotalError: 230, MaxError: 1, AvgError: 0.9583,
				PValue: 0.00125, QValue: 0.0025, Significant: true, DiffSign: 1,
			},
			{
				Predicates: []core.Predicate{
					{Feature: 2, Name: "tier", Value: 2},
				},
				Score: 0.4375, Size: 980, TotalError: 310, MaxError: 1, AvgError: 0.3163,
				PValue: 0.21, QValue: 0.21, DiffSign: -1,
			},
		},
		Levels: []core.LevelStats{
			{Level: 1, Candidates: 7, Valid: 7, Pruned: 0, Elapsed: 2 * time.Millisecond},
			{Level: 2, Candidates: 18, Valid: 11, Pruned: 7, Elapsed: 5 * time.Millisecond},
		},
		N: 2000, AvgError: 0.138, Sigma: 20, Alpha: 0.95,
		Elapsed: 9 * time.Millisecond, Gap: 0.0625,
	}
	var buf bytes.Buffer
	if err := GenerateFromResult(&buf, "golden", res, Options{K: 3}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stored_result.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("report differs from %s (re-run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

func TestGeneratePropagatesError(t *testing.T) {
	ds := &frame.Dataset{
		Name:     "bad",
		X0:       frame.NewIntMatrix(2, 1),
		Features: []frame.Feature{{Name: "f", Domain: 1}},
	}
	ds.X0.Set(0, 0, 1)
	ds.X0.Set(1, 0, 1)
	var buf bytes.Buffer
	if err := Generate(&buf, ds, []float64{1}, Options{}); err == nil {
		t.Fatal("expected error for mismatched vector")
	}
}

func TestErrStats(t *testing.T) {
	s := errStats([]float64{0, 0, 1, 2, 3})
	if s.mean != 1.2 || s.max != 3 || s.median != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.zeroFrac != 0.4 {
		t.Errorf("zeroFrac = %v, want 0.4", s.zeroFrac)
	}
	if z := errStats(nil); z.mean != 0 {
		t.Error("empty input should yield zero stats")
	}
}
