package core

import "math"

// group accumulates the per-candidate state of the deduplication matrix M of
// Section 4.3: the minima over all enumerated parents (used by the upper
// bounds of Equation 3/8) and the number of parent pairs that produced the
// candidate, from which np follows (see pairCandidates). Its columns sit at
// the same index of the level's colSet, so a group holds no pointers.
type group struct {
	ssUB  float64
	seUB  float64
	smUB  float64
	pairs int32
	dead  bool // a pair-level bound already failed; the group bound can only be tighter
}

// pruneStats breaks the pruned pair-candidates of one level down by the rule
// that removed them — the per-rule numbers behind Figure 3, exposed as level
// span attributes by the observability layer.
type pruneStats struct {
	pairSize  int // failed the size bound at pair level (dedup off or L == 2)
	pairScore int // failed the score bound at pair level (dedup off or L == 2)
	dead      int // group condemned by a failing pair-level bound
	size      int // failed the group size bound ⌈ss⌉ >= σ
	score     int // failed the group score bound ⌈sc⌉ > sc_k ∧ ⌈sc⌉ >= 0
	parents   int // missing-parent handling (np != L)
}

// total is the overall pruned count recorded in LevelStats.Pruned.
func (p pruneStats) total() int {
	return p.pairSize + p.pairScore + p.dead + p.size + p.score + p.parents
}

// pairCandidates generates, deduplicates and prunes the level-L slice
// candidates from the evaluated level-(L-1) slices, following Section 4.3:
//
//  1. prune invalid inputs by minimum support and non-zero error
//     (S = removeEmpty(S · (R[,4] >= σ ∧ R[,2] > 0))),
//  2. self-join compatible slices — pairs with exactly L-2 overlapping
//     predicates (I = upper.tri((S Sᵀ) = L-2), Equation 6), realized as a
//     sparse row-wise join over flat per-column posting lists,
//  3. merge pairs into combined slices (P) and discard slices with multiple
//     assignments per original feature,
//  4. deduplicate via canonical slice identity (the paper's ND-array IDs
//     followed by recoding; here the sorted column list is the ID, looked up
//     in an open-addressing table over the level's column arena) while
//     accumulating min-bounds and the parent-pair count: the np surviving
//     parents of an L-column slice pairwise share L-2 columns and the join
//     visits each unordered pair once, so np = L exactly when the count
//     reaches L(L-1)/2 — the paper's rowSums(M·(P1+P2) ≠ 0), derived rather
//     than materialized, and
//  5. prune by Equation 9: ⌈ss⌉ >= σ ∧ ⌈sc⌉ > sc_k ∧ ⌈sc⌉ >= 0 ∧ np = L.
//
// No step allocates per pair or per candidate. It returns the surviving
// candidates, whose column lists share one right-sized arena, and a per-rule
// pruning breakdown. A nil level signals that candidate generation exceeded
// MaxCandidatesPerLevel and enumeration must truncate.
func (st *state) pairCandidates(prev *level, L int, sck float64) (*level, pruneStats) {
	cfg := st.cfg

	// Step 1: input filtering.
	var keep []int
	minSS := float64(cfg.Sigma)
	if cfg.DisableSizePruning {
		minSS = 1
	}
	for i := range prev.cols {
		if prev.ss[i] >= minSS && prev.se[i] > 0 {
			keep = append(keep, i)
		}
	}

	// Without dedup no matrix M is needed: either the ablation disabled it
	// (config 5: every pair is its own candidate, bounds from its two
	// parents only), or L == 2, where the 2-column union uniquely identifies
	// its basic-slice pair so no duplicates can arise and both parents are
	// always enumerated (np = 2 = L).
	dedup := L > 2 && !cfg.DisableDedup
	set := colSet{width: L}
	var groups []group // insertion order for deterministic output
	var pr pruneStats
	union := make([]int, L) // merge scratch shared by every pair

	addPair := func(i, j int) {
		ssUB := math.Min(prev.ss[i], prev.ss[j])
		seUB := math.Min(prev.se[i], prev.se[j])
		smUB := math.Min(prev.sm[i], prev.sm[j])
		// Early pair-level pruning: the group bound is the min over all its
		// pairs, so one failing pair condemns the whole candidate. Only
		// applicable when the corresponding pruning is enabled.
		dead, deadBySize := false, false
		if !cfg.DisableSizePruning && ssUB < float64(cfg.Sigma) {
			dead, deadBySize = true, true
		}
		if !dead && !cfg.DisableScorePruning {
			ub := st.sc.upperBound(ssUB, seUB, smUB)
			if ub <= sck || ub < 0 {
				dead = true
			}
		}
		if !dedup {
			if dead {
				if deadBySize {
					pr.pairSize++
				} else {
					pr.pairScore++
				}
				return
			}
			set.add(union)
			groups = append(groups, group{ssUB: ssUB, seUB: seUB, smUB: smUB})
			return
		}
		k, added := set.index(union)
		if added {
			groups = append(groups, group{ssUB: math.Inf(1), seUB: math.Inf(1), smUB: math.Inf(1)})
		}
		g := &groups[k]
		if dead {
			g.dead = true
		}
		if ssUB < g.ssUB {
			g.ssUB = ssUB
		}
		if seUB < g.seUB {
			g.seUB = seUB
		}
		if smUB < g.smUB {
			g.smUB = smUB
		}
		g.pairs++
	}

	if L == 2 {
		// Basic slices overlap in L-2 = 0 predicates: every cross-feature
		// pair is compatible.
		for a := 0; a < len(keep); a++ {
			if len(groups) > cfg.MaxCandidatesPerLevel {
				return nil, pruneStats{}
			}
			i := keep[a]
			fi := st.featOf[prev.cols[i][0]]
			for b := a + 1; b < len(keep); b++ {
				j := keep[b]
				if st.featOf[prev.cols[j][0]] == fi {
					continue
				}
				if mergeInto(union, prev.cols[i], prev.cols[j]) {
					addPair(i, j)
				}
			}
		}
	} else {
		// Sparse self-join: for each kept slice, count co-occurrences with
		// later kept slices through per-column posting lists; partners are
		// those sharing exactly L-2 columns (the = (L-2) comparison on SSᵀ).
		// The postings are flat: column c's kept slices, in ascending order,
		// are post[head[c]:end[c]].
		nCols := len(st.featOf)
		head := make([]int32, nCols+1)
		for _, i := range keep {
			for _, c := range prev.cols[i] {
				head[c+1]++
			}
		}
		for c := 0; c < nCols; c++ {
			head[c+1] += head[c]
		}
		post := make([]int32, head[nCols])
		end := make([]int32, nCols)
		copy(end, head)
		for a, i := range keep {
			for _, c := range prev.cols[i] {
				post[end[c]] = int32(a)
				end[c]++
			}
		}
		counts := make([]int32, len(keep))
		stamp := make([]int32, len(keep))
		for s := range stamp {
			stamp[s] = -1
		}
		var touched []int32
		for a, i := range keep {
			if len(groups) > cfg.MaxCandidatesPerLevel {
				return nil, pruneStats{}
			}
			touched = touched[:0]
			for _, c := range prev.cols[i] {
				// Slices are visited in ascending order, so every earlier
				// slice of column c has been popped and a heads its list.
				head[c]++
				for _, b := range post[head[c]:end[c]] {
					if stamp[b] != int32(a) {
						stamp[b] = int32(a)
						counts[b] = 0
						touched = append(touched, b)
					}
					counts[b]++
				}
			}
			for _, b := range touched {
				if counts[b] != int32(L-2) {
					continue
				}
				// Reject unions where two columns map to the same original
				// feature (step 3's rowSums(P[,beg:end]) <= 1 check).
				if !mergeInto(union, prev.cols[i], prev.cols[keep[b]]) || !st.featuresDisjoint(union) {
					continue
				}
				addPair(i, keep[b])
			}
		}
	}

	// For L == 2 the feature-validity check happened inline (cross-feature
	// pairs only); for L >= 3 it happened before addPair. Now apply the
	// group-level pruning of Equation 9, compacting the survivors' columns
	// to the front of the arena.
	allPairs := int32(L * (L - 1) / 2)
	n := 0
	var ubs []float64
	for k := range groups {
		g := &groups[k]
		if g.dead {
			pr.dead++
			continue
		}
		if !cfg.DisableSizePruning && g.ssUB < float64(cfg.Sigma) {
			pr.size++
			continue
		}
		ub := st.sc.upperBound(g.ssUB, g.seUB, g.smUB)
		if !cfg.DisableScorePruning {
			if ub <= sck || ub < 0 {
				pr.score++
				continue
			}
		}
		if dedup && !cfg.DisableParentHandling && g.pairs != allPairs {
			// Missing-parent handling: a level-L slice has L parents, met
			// in L(L-1)/2 pairs; if any parent was pruned earlier, every
			// extension is prunable too.
			pr.parents++
			continue
		}
		copy(set.arena[n*L:(n+1)*L], set.at(k))
		if cfg.PriorityEnumeration {
			ubs = append(ubs, ub)
		}
		n++
	}
	flat := make([]int, n*L)
	copy(flat, set.arena)
	out := newLevel(n)
	for k := range out.cols {
		out.cols[k] = flat[k*L : (k+1)*L : (k+1)*L]
	}
	out.ub = ubs
	return out, pr
}

// featuresDisjoint reports whether every column of a sorted union belongs to
// a distinct original feature. Columns of one feature are contiguous, so in
// sorted order any clash is adjacent.
func (st *state) featuresDisjoint(union []int) bool {
	for k := 1; k < len(union); k++ {
		if st.featOf[union[k-1]] == st.featOf[union[k]] {
			return false
		}
	}
	return true
}

// mergeInto writes the sorted union of the sorted column lists a and b into
// dst and reports whether the union has exactly len(dst) entries.
func mergeInto(dst, a, b []int) bool {
	n, i, j := 0, 0, 0
	for i < len(a) || j < len(b) {
		if n == len(dst) {
			return false
		}
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			dst[n] = a[i]
			i++
		case i == len(a) || a[i] > b[j]:
			dst[n] = b[j]
			j++
		default:
			dst[n] = a[i]
			i++
			j++
		}
		n++
	}
	return n == len(dst)
}

// colSet is the insertion-ordered set of one level's candidate column
// lists, all of one width: entry k is arena[k*width:(k+1)*width]. index
// deduplicates through an open-addressing table of entry indices whose keys
// are the arena's lists, compared in full on every probe, so any width and
// any column id work; add appends without deduplication. A set is filled
// through one of the two, never both.
type colSet struct {
	width int
	arena []int
	slots []int32 // entry index + 1 per slot, 0 = empty; len is a power of two
}

func (s *colSet) len() int { return len(s.arena) / s.width }

func (s *colSet) at(k int) []int { return s.arena[k*s.width : (k+1)*s.width] }

func (s *colSet) add(cols []int) { s.arena = append(s.arena, cols...) }

// index returns the entry index of cols, appending a copy of cols when it is
// absent; added reports whether it did. The table stays at most half full.
func (s *colSet) index(cols []int) (k int, added bool) {
	if 2*(s.len()+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for p := hashCols(cols) & mask; ; p = (p + 1) & mask {
		e := s.slots[p]
		if e == 0 {
			k = s.len()
			s.slots[p] = int32(k + 1)
			s.arena = append(s.arena, cols...)
			return k, true
		}
		if equalCols(s.at(int(e-1)), cols) {
			return int(e - 1), false
		}
	}
}

// grow doubles the table (the first one has 64 slots) and reinserts every
// entry in index order.
func (s *colSet) grow() {
	size := 2 * len(s.slots)
	if size == 0 {
		size = 64
	}
	s.slots = make([]int32, size)
	mask := uint64(size - 1)
	for k := 0; k < s.len(); k++ {
		p := hashCols(s.at(k)) & mask
		for s.slots[p] != 0 {
			p = (p + 1) & mask
		}
		s.slots[p] = int32(k + 1)
	}
}

// hashCols mixes a column list into 64 bits, one multiply-xorshift round per
// column, so the low bits that pick a table slot depend on every bit of
// every column.
func hashCols(cols []int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		h = (h ^ uint64(c)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// equalCols reports whether two sorted column lists denote the same slice.
func equalCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessCols(a, b []int) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}
