package core

import (
	"errors"
	"fmt"
	"math"
)

// Typed sentinel errors for input validation. Every validation failure of
// Run, RunDiff and Incremental wraps one of these, so callers can branch with
// errors.Is instead of matching message strings:
//
//	_, err := core.Run(ctx, enc, feats, e, nil, cfg)
//	if errors.Is(err, core.ErrBadErrorVector) { ... }
var (
	// ErrBadAlpha marks a Config.Alpha that is NaN or infinite. (Alpha <= 0
	// selects the default and Alpha > 1 is clamped to 1, both long-standing
	// behaviors that remain accepted.)
	ErrBadAlpha = errors.New("invalid Alpha")
	// ErrEmptyDataset marks a dataset with zero rows.
	ErrEmptyDataset = errors.New("empty dataset")
	// ErrNoFeatures marks a dataset whose feature descriptors do not match
	// its encoding (including the zero-feature case).
	ErrNoFeatures = errors.New("no usable features")
	// ErrBadErrorVector marks an error vector with the wrong length or an
	// entry that is negative, NaN or infinite.
	ErrBadErrorVector = errors.New("invalid error vector")
	// ErrBadWeight marks a weight vector with the wrong length, an entry
	// that is negative, NaN or infinite, or a total that is not positive.
	ErrBadWeight = errors.New("invalid weight vector")
	// ErrWeightedEvaluator marks the unsupported combination of row weights
	// with an external evaluator.
	ErrWeightedEvaluator = errors.New("external evaluators do not support row weights")
	// ErrBadBudget marks a negative Config.Budget. (Zero disables the
	// budget; any positive duration is a valid anytime bound.)
	ErrBadBudget = errors.New("invalid Budget")
	// ErrBadSignificance marks a Config.Significance that is NaN, infinite,
	// negative, or >= 1. (Zero selects DefaultSignificance.)
	ErrBadSignificance = errors.New("invalid Significance level")
	// ErrDiffCheckpoint marks a diff run with a Config.CheckpointPath: its
	// two enumerations would share one checkpoint file, so diff runs do not
	// checkpoint.
	ErrDiffCheckpoint = errors.New("diff runs do not support checkpoints")
	// ErrBadCheckpoint marks a checkpoint file a resumed run refuses: it
	// does not decode, has another checkpoint version or an invalid level,
	// or was written for other data or configuration. Dropping the file and
	// running from level 1 gives the same result.
	ErrBadCheckpoint = errors.New("checkpoint cannot resume this run")
)

// CheckValues applies the input rule shared by error vectors and row
// weights: every value must be finite and >= 0. It returns nil, or an error
// wrapping sentinel (ErrBadErrorVector or ErrBadWeight) that names the first
// offending row.
func CheckValues(v []float64, sentinel error) error {
	for i, x := range v {
		if !(x >= 0) || math.IsInf(x, 1) {
			return fmt.Errorf("core: value %v at row %d is not finite and >= 0: %w", x, i, sentinel)
		}
	}
	return nil
}

// Validate checks the statically checkable configuration fields, returning an
// error wrapping one of the sentinel errors above, or nil. Zero values are
// always valid (they select defaults), so Validate accepts Config{}.
// Run and RunDiff call Validate before touching the data; callers
// building configurations programmatically can call it earlier for a
// fail-fast check.
func (c Config) Validate() error {
	if math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0) {
		return fmt.Errorf("core: Alpha = %v: %w", c.Alpha, ErrBadAlpha)
	}
	if c.Budget < 0 {
		return fmt.Errorf("core: Budget = %v: %w", c.Budget, ErrBadBudget)
	}
	if math.IsNaN(c.Significance) || math.IsInf(c.Significance, 0) || c.Significance < 0 || c.Significance >= 1 {
		return fmt.Errorf("core: Significance = %v: %w", c.Significance, ErrBadSignificance)
	}
	return nil
}
