package core

import (
	"context"
	"sort"
)

// evalWithPriority implements priority-based enumeration (the future-work
// direction of Section 7) inside the level-wise framework: candidates are
// evaluated in descending order of their Equation-3 score upper bound, in
// chunks, and after each chunk the remaining candidates are re-pruned
// against the top-K threshold, which the just-evaluated high-potential
// slices have typically raised. Results are identical to plain evaluation —
// any candidate dropped mid-level has an upper bound at or below the final
// threshold, so neither it nor its descendants can enter the top-K — but
// the evaluated-candidate count can only shrink.
//
// It returns the level restricted to the actually evaluated candidates and
// the number of additionally pruned ones.
func (st *state) evalWithPriority(ctx context.Context, cand *level, lvl int, tk *topK) (*level, int, error) {
	n := cand.size()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if len(cand.ub) == n {
		sort.Slice(order, func(a, b int) bool { return cand.ub[order[a]] > cand.ub[order[b]] })
	}

	chunk := n / 8
	if chunk < 256 {
		chunk = 256
	}
	out := &level{}
	pruned := 0
	scorePruning := !st.cfg.DisableScorePruning && len(cand.ub) == n

	for lo := 0; lo < n; {
		// Collect the next chunk of still-promising candidates.
		sck := tk.threshold()
		var pick []int
		for lo < n && len(pick) < chunk {
			i := order[lo]
			lo++
			if scorePruning && cand.ub[i] <= sck {
				// The bounds are sorted descending, so every remaining
				// candidate fails too.
				pruned += n - lo + 1
				lo = n
				break
			}
			pick = append(pick, i)
		}
		if len(pick) == 0 {
			break
		}
		sub := newLevel(len(pick))
		for k, i := range pick {
			sub.cols[k] = cand.cols[i]
		}
		if err := st.evalSlices(ctx, sub, lvl); err != nil {
			return nil, 0, err
		}
		for k := range sub.cols {
			tk.offer(sub.cols[k], sub.sc[k], sub.ss[k], sub.se[k], sub.sm[k])
		}
		out.cols = append(out.cols, sub.cols...)
		out.sc = append(out.sc, sub.sc...)
		out.se = append(out.se, sub.se...)
		out.sm = append(out.sm, sub.sm...)
		out.ss = append(out.ss, sub.ss...)
	}
	return out, pruned, nil
}
