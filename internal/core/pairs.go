package core

import (
	"math"
	"sync/atomic"

	"sliceline/internal/matrix"
)

// pruneStats breaks the pruned pair-candidates of one level down by the rule
// that removed them — the per-rule numbers behind Figure 3, exposed as level
// span attributes by the observability layer. Equation 9's size bound has
// no count: the join keeps only slices with ss >= σ, so the minimum over any
// pair or group of kept parents meets it. dropped counts parents, not
// candidates: the input slices the join left out because no extension of
// theirs could pass the score bound, so their unions were never formed.
type pruneStats struct {
	pairScore int // failed the score bound at pair level (dedup off or L == 2)
	dead      int // some pair of the candidate's parents failed the score bound
	score     int // failed the group score bound ⌈sc⌉ > sc_k ∧ ⌈sc⌉ >= 0
	parents   int // missing-parent handling (np != L)
	dropped   int // input slices whose own score bound cannot beat sc_k
}

// total is the overall pruned count recorded in LevelStats.Pruned.
func (p pruneStats) total() int {
	return p.pairScore + p.dead + p.score + p.parents
}

// generated is the number of candidates a level (or shard) generated
// before pruning, given its n survivors — the count MaxCandidatesPerLevel
// caps: every merged slice with dedup, and without it every pair that
// passed the pair-level bound.
func (p pruneStats) generated(n int) int { return n + p.dead + p.score + p.parents }

func (p *pruneStats) add(q pruneStats) {
	p.pairScore += q.pairScore
	p.dead += q.dead
	p.score += q.score
	p.parents += q.parents
	p.dropped += q.dropped
}

// joinShard is the number of consecutive kept slices that one unit of join
// work takes as first parents. Workers claim shards in any order, but the
// output is assembled shard by shard, so it does not depend on how many
// workers ran or how they were scheduled.
const joinShard = 64

// pairCandidates generates, deduplicates and prunes the level-L slice
// candidates from the evaluated level-(L-1) slices, following Section 4.3:
//
//  1. prune invalid inputs by minimum support and non-zero error
//     (S = removeEmpty(S · (R[,4] >= σ ∧ R[,2] > 0))), and inputs whose own
//     score bound cannot beat sc_k (see below),
//  2. self-join compatible slices — pairs with exactly L-2 overlapping
//     predicates (I = upper.tri((S Sᵀ) = L-2), Equation 6). Two slices
//     overlap in L-2 predicates exactly when they share one of their
//     (L-2)-column subsets, so the join files each kept slice under its L-1
//     subsets and pairs the members of each subset bucket: it meets every
//     partner pair once and visits nothing else,
//  3. merge pairs into combined slices (P) and discard slices with multiple
//     assignments per original feature. Both parents are feature-disjoint
//     and differ in one column each, so the merged slice is valid iff those
//     two columns belong to distinct features,
//  4. deduplicate (the paper's ND-array IDs and dedup matrix M) by emitting
//     each merged slice from one canonical parent pair: the two of its kept
//     parents with the smallest keep indices. Its other L-2 parents are
//     looked up in an index of the kept slices, which yields np — the
//     paper's rowSums(M·(P1+P2) ≠ 0) — and the min-bounds over all kept
//     parents without a level-wide table, and
//  5. prune by Equation 9: ⌈ss⌉ >= σ ∧ ⌈sc⌉ > sc_k ∧ ⌈sc⌉ >= 0 ∧ np = L.
//
// Without dedup — the DisableDedup ablation, or L == 2, where the 2-column
// union identifies its basic-slice pair — every valid pair is its own
// candidate, bounded by its two parents.
//
// ⌈sc⌉ is non-decreasing in each of its arguments, and a candidate's bounds
// are minima over its parents, so no union of a slice whose own bound fails
// by more than scorer.boundMargin can pass: without dedup each of its pairs
// fails the pair-level bound, and with dedup each of its unions is dead, or
// now lacks that parent and fails np = L. Such slices are dropped from the
// input, and their unions are never formed. The filter is off whenever that
// argument's premise is: without score pruning, and at dedup levels without
// missing-parent handling. The survivors, their bounds and their order are
// those of the unfiltered join; only the pruned counts shrink.
//
// The join runs on up to matrix.MaxWorkers goroutines and allocates nothing
// per pair, candidate or shard. It returns the surviving candidates, whose
// column lists share one right-sized arena, and a per-rule pruning
// breakdown. A nil level signals that candidate generation exceeded
// MaxCandidatesPerLevel and enumeration must truncate; its breakdown then
// carries only the dropped-parent count.
func (st *state) pairCandidates(prev *level, L int, sck float64) (*level, pruneStats) {
	cfg := st.cfg
	minSS := float64(cfg.Sigma)
	if cfg.DisableSizePruning {
		minSS = 1
	}
	dedup := L > 2 && !cfg.DisableDedup
	filter := !cfg.DisableScorePruning && (!dedup || !cfg.DisableParentHandling)
	// Sized for every input slice, so one pass decides each slice once and
	// the filter costs no allocation.
	keep := make([]int, 0, len(prev.cols))
	dropped := 0
	for i := range prev.cols {
		if !(prev.ss[i] >= minSS && prev.se[i] > 0) {
			continue
		}
		if filter && !st.sc.canExtend(prev.ss[i], prev.se[i], prev.sm[i], sck) {
			dropped++
			continue
		}
		keep = append(keep, i)
	}
	nk := len(keep)

	shards := (nk + joinShard - 1) / joinShard
	workers := max(min(matrix.MaxWorkers(), shards), 1)
	j := &join{
		prev: prev, keep: keep, L: L, cfg: cfg, featOf: st.featOf, sc: st.sc, sck: sck,
		dedup:  dedup,
		shards: make([]shardOut, shards),
		arenas: make([]joinArena, workers),
	}
	j.buildBuckets()
	if j.dedup {
		// A deduplicated frontier holds distinct slices, so entry k of the
		// index is kept slice k.
		j.parents = newColSet(L-1, nk)
		for _, i := range keep {
			j.parents.index(prev.cols[i])
		}
	}
	if workers == 1 {
		j.work(0)
	} else {
		matrix.ParallelFor(workers, func(lo, hi int) {
			for w := lo; w < hi; w++ {
				j.work(w)
			}
		})
	}
	if j.generated.Load() > int64(cfg.MaxCandidatesPerLevel) {
		// The input filter ran before the join, so its count is exact; the
		// per-rule counts depend on where the workers stopped and stay 0.
		return nil, pruneStats{dropped: dropped}
	}

	// Copy the survivors, shard by shard, into one right-sized arena.
	pr := pruneStats{dropped: dropped}
	n := 0
	for _, sh := range j.shards {
		pr.add(sh.pr)
		n += sh.hi - sh.lo
	}
	flat := make([]int, n*L)
	var ubs []float64
	if cfg.PriorityEnumeration {
		ubs = make([]float64, n)
	}
	k := 0
	for _, sh := range j.shards {
		ar := &j.arenas[sh.worker]
		copy(flat[k*L:], ar.cols[sh.lo*L:sh.hi*L])
		if cfg.PriorityEnumeration {
			copy(ubs[k:], ar.ub[sh.lo:sh.hi])
		}
		k += sh.hi - sh.lo
	}
	out := newLevel(n)
	for k := range out.cols {
		out.cols[k] = flat[k*L : (k+1)*L : (k+1)*L]
	}
	out.ub = ubs
	return out, pr
}

// join is one level's candidate generation: its read-only inputs, the
// subset buckets and parent index built from them, and what the workers
// write. Workers read their inputs from here, not from the run's state,
// which thereby stays on its caller's stack.
type join struct {
	prev   *level
	keep   []int // kept slice indices into prev, ascending
	L      int
	cfg    Config
	featOf []int
	sc     scorer
	sck    float64
	dedup  bool

	// Subset buckets. Slot s = a*(L-1)+d stands for kept slice a without
	// its d-th column. A bucket lists the slots of one (L-2)-column subset
	// in ascending keep index: slot s sits at member index at[s] of a bucket
	// that ends at end[s], and member m is kept slice member[m], whose
	// column outside the subset is extra[m].
	at, end, member, extra []int32

	parents colSet // entry k: kept slice k's columns (dedup only)

	next      atomic.Int64 // next shard to claim
	generated atomic.Int64 // candidates generated before pruning
	shards    []shardOut
	arenas    []joinArena // one per worker
}

// shardOut records one shard's work: the worker that did it, its survivors'
// range in that worker's arena (in candidates) and its per-rule counts.
type shardOut struct {
	worker, lo, hi int
	pr             pruneStats
}

// joinArena holds one worker's survivors: L columns per candidate and,
// under PriorityEnumeration, one score upper bound.
type joinArena struct {
	cols []int
	ub   []float64
}

// buildBuckets files every kept slice under each of its (L-2)-column
// subsets. At L == 2 every subset is empty: one bucket holds every kept
// slice.
func (j *join) buildBuckets() {
	w := j.L - 1
	ns := len(j.keep) * w
	buf := make([]int32, 4*ns)
	j.at, j.end, j.member, j.extra = buf[:ns], buf[ns:2*ns], buf[2*ns:3*ns], buf[3*ns:]
	bucket := j.end // each slot's bucket id until end replaces it
	nb := 1         // at L == 2 every slot is in bucket 0
	if j.L > 2 {
		subsets := newColSet(j.L-2, ns)
		sub := make([]int, j.L-2)
		for a, i := range j.keep {
			cols := j.prev.cols[i]
			for d := 0; d < w; d++ {
				copy(sub, cols[:d])
				copy(sub[d:], cols[d+1:])
				b, _ := subsets.index(sub)
				bucket[a*w+d] = int32(b)
			}
		}
		nb = subsets.len()
	}
	// Counting sort of the slots by bucket; filling bucket b advances
	// start[b+1] from b's first member index to its end.
	start := make([]int32, nb+2)
	for _, b := range bucket {
		start[b+2]++
	}
	for b := 2; b < len(start); b++ {
		start[b] += start[b-1]
	}
	for a, i := range j.keep {
		cols := j.prev.cols[i]
		for d := 0; d < w; d++ {
			s := a*w + d
			m := start[bucket[s]+1]
			start[bucket[s]+1]++
			j.at[s], j.member[m], j.extra[m] = m, int32(a), int32(cols[d])
		}
	}
	for s, b := range bucket {
		j.end[s] = start[b+1]
	}
}

// work claims shards until none is left and joins each shard's kept slices
// with their later partners. It stops early once the level has generated
// more candidates than MaxCandidatesPerLevel: the level is then discarded
// whatever the remaining shards hold. Everything a worker writes per pair
// lives in locals or in its own scratch, which a trailing cache line keeps
// apart from any other worker's.
func (j *join) work(w int) {
	L, limit := j.L, int64(j.cfg.MaxCandidatesPerLevel)
	prev, keep, featOf := j.prev, j.keep, j.featOf
	at, end, member, extra := j.at, j.end, j.member, j.extra
	scratch := make([]int, 3*L+8) // the merged slice, a lookup key, the kept parents
	union, key, par := scratch[:L], scratch[L:2*L-1], scratch[2*L:3*L]
	cols, ubs := j.arenas[w].cols, j.arenas[w].ub
	for {
		s := int(j.next.Add(1)) - 1
		if s >= len(j.shards) {
			break
		}
		lo := len(cols) / L
		var pr pruneStats
		for a := s * joinShard; a < min((s+1)*joinShard, len(keep)); a++ {
			if gen := int64(pr.generated(len(cols)/L - lo)); gen+j.generated.Load() > limit {
				j.generated.Add(gen)
				return
			}
			ca := prev.cols[keep[a]]
			for d := range ca {
				sa := a*(L-1) + d
				fa := featOf[ca[d]]
				for m := at[sa] + 1; m < end[sa]; m++ {
					if featOf[extra[m]] == fa {
						continue
					}
					b := int(member[m])
					mergeInto(union, ca, prev.cols[keep[b]])
					par[0], par[1] = a, b
					np := 2
					if j.dedup {
						var canonical bool
						if np, canonical = j.otherParents(union, ca, d, b, key, par); !canonical {
							continue
						}
					}
					if ub, ok := j.prune(par[:np], &pr); ok {
						cols = append(reserve(cols, L), union...)
						if j.cfg.PriorityEnumeration {
							ubs = append(reserve(ubs, 1), ub)
						}
					}
				}
			}
		}
		j.shards[s] = shardOut{worker: w, lo: lo, hi: len(cols) / L, pr: pr}
		j.generated.Add(int64(pr.generated(len(cols)/L - lo)))
	}
	j.arenas[w] = joinArena{cols: cols, ub: ubs}
}

// otherParents looks up the kept parents of the merged slice union other
// than its partners a (columns ca, joined without column d) and b: each
// lacks one of the columns a and b share. It appends them to par after a
// and b and returns np, the number of kept parents. It stops and reports
// false as soon as one of them lies below b, which makes another pair the
// canonical one.
func (j *join) otherParents(union, ca []int, d, b int, key, par []int) (np int, canonical bool) {
	np = 2
	for q, c := range ca {
		if q == d {
			continue
		}
		withoutCol(key, union, c)
		if p := j.parents.find(key); p >= 0 {
			if p < b {
				return np, false
			}
			par[np] = p
			np++
		}
	}
	return np, true
}

// prune applies the bounds to the candidate whose kept parents are par and
// counts the rule that removes it in pr. First comes the pair-level score
// bound of the Section 4.3 join, to every pair of parents as the paper's
// pair-wise join meets them. Then Equation 9 over the minima of all kept
// parents: score, and with dedup the missing-parent rule np = L. Its size
// bound always holds here (see pruneStats). It reports whether the
// candidate survives, and its score upper bound.
func (j *join) prune(par []int, pr *pruneStats) (float64, bool) {
	prev, cfg := j.prev, &j.cfg
	ub, pairUB := 0.0, false // the last pair's score bound, if computed
	for x := 0; x < len(par) && !cfg.DisableScorePruning; x++ {
		for _, q := range par[x+1:] {
			i, k := j.keep[par[x]], j.keep[q]
			ub, pairUB = j.sc.upperBound(math.Min(prev.ss[i], prev.ss[k]), math.Min(prev.se[i], prev.se[k]), math.Min(prev.sm[i], prev.sm[k])), true
			if ub > j.sck && ub >= 0 {
				continue
			}
			// A failing pair is pruned itself without dedup; with dedup it
			// condemns the merged slice.
			if j.dedup {
				pr.dead++
			} else {
				pr.pairScore++
			}
			return 0, false
		}
	}
	ss, se, sm := math.Inf(1), math.Inf(1), math.Inf(1)
	for _, p := range par {
		i := j.keep[p]
		ss, se, sm = math.Min(ss, prev.ss[i]), math.Min(se, prev.se[i]), math.Min(sm, prev.sm[i])
	}
	if len(par) > 2 || !pairUB {
		// Two parents bound the candidate exactly as their pair does.
		ub = j.sc.upperBound(ss, se, sm)
	}
	if !cfg.DisableScorePruning && (ub <= j.sck || ub < 0) {
		pr.score++
		return 0, false
	}
	if j.dedup && !cfg.DisableParentHandling && len(par) != j.L {
		// Missing-parent handling: a parent pruned earlier makes every
		// extension prunable too.
		pr.parents++
		return 0, false
	}
	return ub, true
}

// reserve returns s with room for n more elements, doubling its capacity
// when it has to grow, so an arena of c elements grows O(log c) times.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]T, len(s), 2*cap(s)+joinShard*n)
	copy(grown, s)
	return grown
}

// withoutCol writes the sorted column list cols without column c into dst,
// which has room for one column less.
func withoutCol(dst, cols []int, c int) {
	n := 0
	for _, x := range cols {
		if x != c {
			dst[n] = x
			n++
		}
	}
}

// mergeInto writes the sorted union of the sorted column lists a and b,
// which has exactly len(dst) entries, into dst.
func mergeInto(dst, a, b []int) {
	n, i, j := 0, 0, 0
	for i < len(a) || j < len(b) {
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
}

// colSet is an insertion-ordered set of column lists, all of one width:
// entry k is arena[k*width:(k+1)*width]. An open-addressing table of entry
// indices, keyed by the arena's lists and compared in full on every probe,
// finds them, so any width and any column id work.
type colSet struct {
	width int
	arena []int
	slots []int32 // entry index + 1 per slot, 0 = empty; len is a power of two
}

// newColSet returns an empty set that holds n entries without growing.
func newColSet(width, n int) colSet {
	size := 64
	for size < 2*n {
		size *= 2
	}
	return colSet{width: width, arena: make([]int, 0, width*n), slots: make([]int32, size)}
}

func (s *colSet) len() int { return len(s.arena) / s.width }

func (s *colSet) at(k int) []int { return s.arena[k*s.width : (k+1)*s.width] }

// index returns the entry index of cols, appending a copy of cols when it is
// absent; added reports whether it did. The table stays at most half full.
func (s *colSet) index(cols []int) (k int, added bool) {
	if 2*(s.len()+1) > len(s.slots) {
		s.grow()
	}
	p := s.probe(cols)
	if e := s.slots[p]; e != 0 {
		return int(e - 1), false
	}
	k = s.len()
	s.slots[p] = int32(k + 1)
	s.arena = append(s.arena, cols...)
	return k, true
}

// find returns the entry index of cols, or -1 when cols is absent.
func (s *colSet) find(cols []int) int {
	if len(s.slots) == 0 {
		return -1
	}
	return int(s.slots[s.probe(cols)]) - 1
}

// probe returns the slot that holds cols or, when cols is absent, the empty
// slot where it belongs.
func (s *colSet) probe(cols []int) uint64 {
	mask := uint64(len(s.slots) - 1)
	for p := hashCols(cols) & mask; ; p = (p + 1) & mask {
		if e := s.slots[p]; e == 0 || equalCols(s.at(int(e-1)), cols) {
			return p
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
