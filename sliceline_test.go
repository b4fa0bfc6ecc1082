package sliceline_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"sliceline"
)

const toyCSV = `color,weight,label
red,1.0,0
red,1.2,0
red,0.9,1
blue,5.0,1
blue,5.5,1
blue,4.8,1
green,2.0,0
green,2.2,0
red,1.1,0
blue,5.2,1
green,2.1,0
green,1.9,1
red,1.0,0
blue,5.1,1
green,2.0,0
red,0.8,1
`

func toyDataset(t *testing.T) *sliceline.Dataset {
	t.Helper()
	ds, err := sliceline.DatasetFromCSV(strings.NewReader(toyCSV), "label", 4)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFacadeEndToEnd(t *testing.T) {
	ds := toyDataset(t)
	if ds.NumRows() != 16 || ds.NumFeatures() != 2 {
		t.Fatalf("dataset shape %dx%d, want 16x2", ds.NumRows(), ds.NumFeatures())
	}
	errVec, desc, err := sliceline.TrainAndScore(ds, sliceline.TaskClassification)
	if err != nil {
		t.Fatal(err)
	}
	if desc == "" {
		t.Error("empty model description")
	}
	res, err := sliceline.RunContext(context.Background(), ds, errVec, sliceline.Config{K: 3, Sigma: 2, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.TopK {
		if s.Score <= 0 || s.Size < 2 {
			t.Errorf("invalid slice in result: %v", s)
		}
	}
}

func TestFacadeMatchesBruteForce(t *testing.T) {
	ds := toyDataset(t)
	e := make([]float64, ds.NumRows())
	for i := range e {
		e[i] = float64(i%3) * 0.5
	}
	cfg := sliceline.Config{K: 4, Sigma: 2, Alpha: 0.8}
	res, err := sliceline.RunContext(context.Background(), ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sliceline.BruteForce(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != len(want) {
		t.Fatalf("got %d slices, brute force %d", len(res.TopK), len(want))
	}
	for i := range want {
		if math.Abs(res.TopK[i].Score-want[i].Score) > 1e-9 {
			t.Errorf("slice %d: score %v vs brute force %v", i, res.TopK[i].Score, want[i].Score)
		}
	}
}

func TestTrainAndScoreRegression(t *testing.T) {
	ds := toyDataset(t)
	errVec, desc, err := sliceline.TrainAndScore(ds, sliceline.TaskRegression)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "linear regression") {
		t.Errorf("desc = %q", desc)
	}
	for i, e := range errVec {
		if e < 0 {
			t.Fatalf("negative error %v at row %d", e, i)
		}
	}
}

func TestTrainAndScoreNoLabels(t *testing.T) {
	ds := toyDataset(t)
	ds.Y = nil
	if _, _, err := sliceline.TrainAndScore(ds, sliceline.TaskClassification); err == nil {
		t.Fatal("expected error for missing labels")
	}
}

func TestTrainAndScoreUnknownTask(t *testing.T) {
	ds := toyDataset(t)
	if _, _, err := sliceline.TrainAndScore(ds, sliceline.Task(99)); err == nil {
		t.Fatal("expected error for unknown task")
	}
}

func TestErrorFunctionsExported(t *testing.T) {
	y := []float64{1, 2}
	yhat := []float64{1, 4}
	if got := sliceline.SquaredLoss(y, yhat); got[1] != 4 {
		t.Errorf("SquaredLoss = %v", got)
	}
	if got := sliceline.Inaccuracy(y, yhat); got[0] != 0 || got[1] != 1 {
		t.Errorf("Inaccuracy = %v", got)
	}
	if got := sliceline.AbsLoss(y, yhat); got[1] != 2 {
		t.Errorf("AbsLoss = %v", got)
	}
}

func TestSliceRowsRoundTrip(t *testing.T) {
	ds := toyDataset(t)
	e := make([]float64, ds.NumRows())
	for i := range e {
		if i%2 == 0 {
			e[i] = 1
		}
	}
	res, err := sliceline.RunContext(context.Background(), ds, e, sliceline.Config{K: 3, Sigma: 2, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.TopK {
		rows, err := sliceline.SliceRows(ds, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != s.Size {
			t.Errorf("SliceRows returned %d rows, slice size %d", len(rows), s.Size)
		}
		for _, r := range rows {
			for _, p := range s.Predicates {
				if ds.X0.At(r, p.Feature) != p.Value {
					t.Errorf("row %d does not satisfy %v", r, p)
				}
			}
		}
	}
}

func TestSliceRowsValidation(t *testing.T) {
	ds := toyDataset(t)
	bad := sliceline.Slice{Predicates: []sliceline.Predicate{{Feature: 99, Value: 1}}}
	if _, err := sliceline.SliceRows(ds, bad); err == nil {
		t.Error("expected error for out-of-range feature")
	}
	bad = sliceline.Slice{Predicates: []sliceline.Predicate{{Feature: 0, Value: 99}}}
	if _, err := sliceline.SliceRows(ds, bad); err == nil {
		t.Error("expected error for out-of-domain value")
	}
}
