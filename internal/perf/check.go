package perf

import (
	"fmt"
	"math"

	"sliceline/internal/core"
)

// mismatch is a wrong output: a result that differs from its reference.
type mismatch struct{ what string }

func (m *mismatch) Error() string { return "wrong result: " + m.what }

// sameResult checks that got is bit-identical to want in everything but
// wall-clock fields: every top-K slice with its predicates and statistics,
// and every level's counts.
func sameResult(got, want *core.Result) error {
	differ := func(format string, args ...any) error {
		return &mismatch{what: fmt.Sprintf(format, args...)}
	}
	if got.N != want.N || !sameFloat(got.AvgError, want.AvgError) || got.Sigma != want.Sigma ||
		!sameFloat(got.Alpha, want.Alpha) || got.Truncated != want.Truncated || !sameFloat(got.Gap, want.Gap) {
		return differ("run statistics differ")
	}
	if len(got.Levels) != len(want.Levels) {
		return differ("%d levels, want %d", len(got.Levels), len(want.Levels))
	}
	for i, g := range got.Levels {
		w := want.Levels[i]
		if g.Level != w.Level || g.Candidates != w.Candidates || g.Valid != w.Valid || g.Pruned != w.Pruned {
			return differ("level %d counts %+v, want %+v", w.Level, g, w)
		}
	}
	if len(got.TopK) != len(want.TopK) {
		return differ("%d top-K slices, want %d", len(got.TopK), len(want.TopK))
	}
	for i, g := range got.TopK {
		w := want.TopK[i]
		same := len(g.Predicates) == len(w.Predicates) &&
			sameFloat(g.Score, w.Score) && g.Size == w.Size &&
			sameFloat(g.TotalError, w.TotalError) && sameFloat(g.MaxError, w.MaxError) &&
			sameFloat(g.AvgError, w.AvgError) && sameFloat(g.PValue, w.PValue) &&
			sameFloat(g.QValue, w.QValue) && g.Significant == w.Significant && g.DiffSign == w.DiffSign
		for j := 0; same && j < len(g.Predicates); j++ {
			same = g.Predicates[j] == w.Predicates[j]
		}
		if !same {
			return differ("top-K slice %d is %v, want %v", i, g, w)
		}
	}
	return nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
