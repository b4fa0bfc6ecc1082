// Package sliceline is a Go implementation of SliceLine (Sagadeeva & Boehm,
// SIGMOD 2021): fast, linear-algebra-based slice finding for ML model
// debugging. Given an integer-encoded feature matrix X0 and a row-aligned
// non-negative error vector e (derived from a trained model), it finds the
// exact top-K data slices — conjunctions of feature predicates — on which
// the model performs significantly worse than on the whole dataset.
//
// Basic usage:
//
//	ds, _ := sliceline.DatasetFromCSV(file, "label", 10)
//	e, _, _ := sliceline.TrainAndScore(ds, sliceline.TaskClassification)
//	res, _ := sliceline.RunContext(ctx, ds, e, sliceline.Config{K: 5, Alpha: 0.95})
//	for _, s := range res.TopK {
//	    fmt.Println(s)
//	}
//
// RunContext and RunDiffContext are the two entry points: the first finds
// the slices where one model errs, the second the slices where a new model
// got worse or better than a baseline. Row weights, anytime budgets,
// checkpoints and observability hooks are options (WithWeights, WithBudget,
// ...). Error values and weights must be finite and >= 0.
//
// The enumeration is exact: the returned slices are guaranteed to be the
// true top-K under the scoring function of the paper (Definition 2), with
// pruning based on size, score upper bounds and missing parents making the
// exponential lattice search practical. Evaluation can be delegated to the
// multi-threaded or distributed backends in internal/dist via
// Config.Evaluator.
package sliceline

import (
	"fmt"
	"io"

	"sliceline/internal/core"
	"sliceline/internal/frame"
	"sliceline/internal/ml"
)

// Re-exported core types. See the internal/core documentation for details.
type (
	// Config holds the SliceLine parameters (K, Sigma, Alpha, MaxLevel) and
	// advanced switches.
	Config = core.Config
	// Result is the outcome of a run: the top-K slices plus per-level
	// enumeration statistics.
	Result = core.Result
	// Slice is one found slice with its predicates and statistics.
	Slice = core.Slice
	// Predicate is a single equality predicate of a slice.
	Predicate = core.Predicate
	// LevelStats reports per-lattice-level enumeration characteristics.
	LevelStats = core.LevelStats
	// Snapshot is one anytime-mode progress point: the current top-K plus
	// the certified optimality gap (see WithBudget / WithOnSnapshot).
	Snapshot = core.Snapshot

	// Dataset is an integer-encoded feature matrix with metadata and an
	// optional label vector.
	Dataset = frame.Dataset
	// Feature describes one encoded feature.
	Feature = frame.Feature
)

// BruteForce exhaustively enumerates the full slice lattice; it is only
// feasible for tiny datasets and exists for verification and education.
func BruteForce(ds *Dataset, e []float64, cfg Config) ([]Slice, error) {
	return core.BruteForce(ds, e, cfg)
}

// SliceRows returns the indices of the dataset rows belonging to a slice,
// for inspecting the offending tuples or sourcing more data for the
// subgroup.
func SliceRows(ds *Dataset, s Slice) ([]int, error) {
	return core.SliceRows(ds, s)
}

// Diversify greedily filters a score-ordered slice list so that no kept
// slice overlaps an earlier kept slice by more than maxJaccard (row-set
// Jaccard similarity). Use it when the raw top-K is dominated by
// near-duplicate refinements of one subgroup.
func Diversify(ds *Dataset, slices []Slice, maxJaccard float64) ([]Slice, error) {
	return core.Diversify(ds, slices, maxJaccard)
}

// DatasetFromCSV reads a CSV stream with a header row, recodes categorical
// columns, bins numeric columns into nBins equi-width bins, and extracts the
// named numeric label column as Y. Columns in drop are skipped.
func DatasetFromCSV(r io.Reader, label string, nBins int, drop ...string) (*Dataset, error) {
	f, err := frame.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return frame.FromFrame(f, label, nBins, drop...)
}

// Task selects the model TrainAndScore fits.
type Task int

// Supported tasks.
const (
	// TaskClassification fits multinomial logistic regression and scores
	// rows with 0/1 inaccuracy.
	TaskClassification Task = iota
	// TaskRegression fits ridge linear regression and scores rows with
	// squared loss.
	TaskRegression
)

// TrainAndScore fits a model of the given task on the dataset's features and
// labels and returns the row-aligned error vector e >= 0 that RunContext
// consumes, together with a short description of the fitted model. It covers
// the common debugging loop; callers with their own models can pass any
// finite non-negative error vector to RunContext directly.
func TrainAndScore(ds *Dataset, task Task) (errVec []float64, desc string, err error) {
	name := ml.TaskClass
	switch task {
	case TaskClassification:
	case TaskRegression:
		name = ml.TaskReg
	default:
		return nil, "", fmt.Errorf("sliceline: unknown task %d", task)
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		return nil, "", err
	}
	if errVec, desc, err = ml.TrainAndScore(enc.X, ds.Y, name); err != nil {
		return nil, "", fmt.Errorf("sliceline: dataset %s: %w", ds.Name, err)
	}
	return errVec, desc, nil
}

// SquaredLoss, Inaccuracy and AbsLoss expose the standard error functions
// for callers that score their own models.
var (
	SquaredLoss = ml.SquaredLoss
	Inaccuracy  = ml.Inaccuracy
	AbsLoss     = ml.AbsLoss
)
