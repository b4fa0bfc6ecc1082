package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"sliceline/internal/frame"
)

// Diff slicing: given two error vectors for the same rows — a baseline
// model's and a new model's — find the slices where the new model got worse
// (regressions) and where it got better (improvements). Each direction is an
// ordinary SliceLine problem over the rectified error delta:
//
//	regressions:  e⁺ = max(0, eNew − eBase)
//	improvements: e⁻ = max(0, eBase − eNew)
//
// lowered onto the weighted enumeration path with unit weights, so each
// direction is bit-identical to Run with unit weights over that delta — the
// diff differential proof. Rows whose error moved the other way contribute
// zero, exactly like rows with zero error in a plain run.

// RunDiff finds the top slices of model-behavior change between two error
// vectors over the same one-hot encoding: slices where the new model
// regressed (Slice.DiffSign = +1) and where it improved (DiffSign = -1).
// Both vectors obey Run's rule (finite and >= 0), and both directions are
// enumerated with the same configuration; the merged top-K interleaves them
// by score. External evaluators are not supported (the lowering is
// weighted); diff runs always evaluate locally. A CheckpointPath is refused
// with ErrDiffCheckpoint before anything runs or is written.
func RunDiff(ctx context.Context, enc *frame.Encoding, feats []frame.Feature, eBase, eNew []float64, cfg Config) (*Result, error) {
	if cfg.CheckpointPath != "" {
		return nil, fmt.Errorf("core: %w", ErrDiffCheckpoint)
	}
	n := enc.X.Rows()
	if len(eBase) != n {
		return nil, fmt.Errorf("core: baseline error vector length %d vs %d rows: %w", len(eBase), n, ErrBadErrorVector)
	}
	if len(eNew) != n {
		return nil, fmt.Errorf("core: error vector length %d vs %d rows: %w", len(eNew), n, ErrBadErrorVector)
	}
	if err := CheckValues(eBase, ErrBadErrorVector); err != nil {
		return nil, fmt.Errorf("core: baseline: %w", err)
	}
	if err := CheckValues(eNew, ErrBadErrorVector); err != nil {
		return nil, err
	}
	reg := make([]float64, n)
	imp := make([]float64, n)
	ones := make([]float64, n)
	for i := 0; i < n; i++ {
		if d := eNew[i] - eBase[i]; d > 0 {
			reg[i] = d
		} else {
			imp[i] = -d
		}
		ones[i] = 1
	}
	start := time.Now()
	regRes, err := Run(ctx, enc, feats, reg, ones, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: diff regression direction: %w", err)
	}
	impRes, err := Run(ctx, enc, feats, imp, ones, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: diff improvement direction: %w", err)
	}
	return mergeDiff(regRes, impRes, time.Since(start)), nil
}

// mergeDiff combines the per-direction results into one: slices tagged with
// their direction sign and interleaved by score, level statistics
// concatenated (regressions first), and the weaker of the two certificates
// reported. AvgError is the mean absolute error delta (the two directions'
// rectified means sum to it). Per-slice q-values keep their per-direction
// families, so each direction's annotations equal a standalone run's.
func mergeDiff(regRes, impRes *Result, elapsed time.Duration) *Result {
	out := &Result{
		N:         regRes.N,
		AvgError:  regRes.AvgError + impRes.AvgError,
		Sigma:     regRes.Sigma,
		Alpha:     regRes.Alpha,
		Elapsed:   elapsed,
		Truncated: regRes.Truncated || impRes.Truncated,
		Gap:       math.Max(regRes.Gap, impRes.Gap),
	}
	for _, s := range regRes.TopK {
		s.DiffSign = +1
		out.TopK = append(out.TopK, s)
	}
	for _, s := range impRes.TopK {
		s.DiffSign = -1
		out.TopK = append(out.TopK, s)
	}
	sort.SliceStable(out.TopK, func(i, j int) bool {
		a, b := out.TopK[i], out.TopK[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Size != b.Size {
			return a.Size > b.Size
		}
		return a.DiffSign > b.DiffSign // regressions first on exact ties
	})
	out.Levels = append(out.Levels, regRes.Levels...)
	out.Levels = append(out.Levels, impRes.Levels...)
	return out
}
