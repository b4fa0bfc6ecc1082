package core

import (
	"time"

	"sliceline/internal/frame"
)

// Anytime mode: Config.Budget bounds the enumeration wall clock at lattice
// level boundaries, and Config.OnSnapshot streams the current top-K with a
// certified optimality gap after every completed level. The gap reuses the
// Equation-3 score upper bounds already computed for pruning:
//
// Every feasible slice not yet evaluated descends either from a slice on
// the surviving frontier of the last completed level, or only from pruned
// candidates. A descendant's statistics are dominated elementwise by its
// ancestor's (rows only shrink and e, w >= 0), and upperBound is monotone
// non-decreasing in (ss, se, sm), so ub(ancestor stats) bounds the whole
// subtree. Pruned branches contribute nothing beyond the current threshold:
// size-pruned subtrees are infeasible outright, and score-/parent-pruned
// ones were cut precisely because their bound was <= the threshold at prune
// time, which never decreases. Hence
//
//	gap = max(0, max over frontier of ub(ss, se, sm) − sc_k)
//
// certifies that no unexplored slice beats the K-th best score by more than
// gap. The frontier only ever produces children whose bounds are <= their
// parents' and the threshold is monotone, so the gap is non-increasing
// across snapshots; it is exactly 0 once the frontier is empty or the full
// lattice depth has been enumerated.

// gapBound computes the certified optimality gap after a completed level
// whose evaluated slices form the surviving frontier.
func (st *state) gapBound(frontier *level, completedLevel int, threshold float64) float64 {
	if completedLevel >= st.m || frontier == nil || frontier.size() == 0 {
		return 0
	}
	gap := 0.0
	for i := range frontier.ss {
		ub := st.sc.upperBound(frontier.ss[i], frontier.se[i], frontier.sm[i])
		if g := ub - threshold; g > gap {
			gap = g
		}
	}
	return gap
}

// emitSnapshot fires Config.OnSnapshot with the current decoded + annotated
// top-K and the gap certified by the given frontier. No-op without a
// callback.
func (st *state) emitSnapshot(tk *topK, frontier *level, lvl int, feats []frame.Feature, start time.Time) {
	if st.cfg.OnSnapshot == nil {
		return
	}
	slices := st.decode(tk, feats)
	st.annotate(slices, tk.entries)
	st.cfg.OnSnapshot(Snapshot{
		Level:   lvl,
		TopK:    slices,
		Gap:     st.gapBound(frontier, lvl, tk.threshold()),
		Elapsed: time.Since(start),
	})
}

// budgetExceeded reports whether the anytime budget has elapsed. A zero
// budget never expires.
func (st *state) budgetExceeded(start time.Time) bool {
	return st.cfg.Budget > 0 && time.Since(start) >= st.cfg.Budget
}
