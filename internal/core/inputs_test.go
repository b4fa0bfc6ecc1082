package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sliceline/internal/frame"
)

// TestNonFiniteInputsRejected: every entry point applies the one input rule
// (finite and >= 0) to error values and weights. NaN or infinite values used
// to slip through and surface as NaN scores or an overflowed Result.N.
func TestNonFiniteInputsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds, e := randomDataset(rng, 60, 3, 3)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	with := func(v []float64, row int, x float64) []float64 {
		out := append([]float64(nil), v...)
		out[row] = x
		return out
	}
	ones := make([]float64, len(e))
	for i := range ones {
		ones[i] = 1
	}
	cfg := Config{K: 3, Sigma: 3}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		be := with(e, 7, bad)
		cases := []struct {
			name string
			run  func() error
		}{
			{"Run", func() error { _, err := Run(ctx, enc, ds.Features, be, nil, cfg); return err }},
			{"Run/weighted", func() error { _, err := Run(ctx, enc, ds.Features, be, ones, cfg); return err }},
			{"RunDiff/base", func() error { _, err := RunDiff(ctx, enc, ds.Features, be, e, cfg); return err }},
			{"RunDiff/new", func() error { _, err := RunDiff(ctx, enc, ds.Features, e, be, cfg); return err }},
			{"Incremental.Run", func() error { return appendErrs(t, []float64{0.5, bad, 0.25}) }},
		}
		for _, c := range cases {
			if err := c.run(); !errors.Is(err, ErrBadErrorVector) {
				t.Errorf("%s with e = %v: got %v, want ErrBadErrorVector", c.name, bad, err)
			}
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		bw := with(ones, 11, bad)
		if _, err := Run(ctx, enc, ds.Features, e, bw, cfg); !errors.Is(err, ErrBadWeight) {
			t.Errorf("Run with w = %v: got %v, want ErrBadWeight", bad, err)
		}
	}
	// Diff runs lower onto weighted runs, which external evaluators refuse.
	if _, err := RunDiff(ctx, enc, ds.Features, e, e, Config{Evaluator: stubEvaluator{}}); !errors.Is(err, ErrWeightedEvaluator) {
		t.Errorf("RunDiff with an external evaluator: got %v, want ErrWeightedEvaluator", err)
	}
	// Finite weights whose sum overflows are rejected too.
	huge := make([]float64, len(e))
	for i := range huge {
		huge[i] = math.MaxFloat64
	}
	if _, err := Run(ctx, enc, ds.Features, e, huge, cfg); !errors.Is(err, ErrBadWeight) {
		t.Errorf("Run with an overflowing weight total: got %v, want ErrBadWeight", err)
	}
}

// appendErrs runs a fresh Incremental on a base generation, then on one with
// len(errs) appended rows carrying errs, and returns the second Run's error.
func appendErrs(t *testing.T, errs []float64) error {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	names := []string{"a", "b"}
	base := randomCatRows(rng, 20, len(names), 3, 0)
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
	inc, err := NewIncremental(Config{K: 2, Sigma: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := randomErrs(rng, len(base))
	if _, err := inc.Run(context.Background(), enc, ds.Features, e); err != nil {
		t.Fatal(err)
	}
	res, err := ap.AppendRows(randomCatRows(rng, len(errs), len(names), 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = inc.Run(context.Background(), res.Enc, res.DS.Features, append(e, errs...))
	return err
}

// TestCheckValues pins the rule itself: zero and finite positives pass, the
// first negative, NaN or infinite value is reported with its row.
func TestCheckValues(t *testing.T) {
	if err := CheckValues([]float64{0, 1.5, math.MaxFloat64}, ErrBadErrorVector); err != nil {
		t.Fatalf("valid values rejected: %v", err)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := CheckValues([]float64{0, bad, -2}, ErrBadWeight)
		if !errors.Is(err, ErrBadWeight) {
			t.Fatalf("%v: got %v, want ErrBadWeight", bad, err)
		}
		if want := fmt.Sprintf("%v at row 1", bad); !strings.Contains(err.Error(), want) {
			t.Fatalf("%v: error %q does not name %q", bad, err, want)
		}
	}
}
