package core

import (
	"math"
	"slices"
	"sync/atomic"

	"sliceline/internal/matrix"
)

// pruneStats breaks the pruned pair-candidates of one level down by the rule
// that removed them — the per-rule numbers behind Figure 3, exposed as level
// span attributes by the observability layer. Equation 9's size bound has
// no count: the join keeps only slices with ss >= σ, so the minimum over any
// pair or group of kept parents meets it. With the prefix join, dead and
// score count only candidates whose L parents are all kept, so neither
// depends on column order. parents does: it counts the unions the prefix
// join met from their prefix pair and dropped because another parent is not
// kept, and which unions those are depends on how the columns are numbered.
// It is therefore in neither total() nor generated(). dropped counts
// parents, not candidates: the input slices the join left out because no
// extension of theirs could pass the score bound, so their unions were
// never formed.
type pruneStats struct {
	pairScore int // failed the score bound at pair level (dedup off or L == 2)
	dead      int // some pair of the candidate's parents failed the score bound
	score     int // failed the group score bound ⌈sc⌉ > sc_k ∧ ⌈sc⌉ >= 0
	parents   int // met by its prefix pair, but another parent is not kept
	dropped   int // input slices whose own score bound cannot beat sc_k
}

// total is the overall pruned count recorded in LevelStats.Pruned.
func (p pruneStats) total() int {
	return p.pairScore + p.dead + p.score
}

// generated is the number of candidates a level (or shard) generated
// before pruning, given its n survivors — the count MaxCandidatesPerLevel
// caps: with dedup every merged slice the join bounds, and without it every
// pair that passed the pair-level bound.
func (p pruneStats) generated(n int) int { return n + p.dead + p.score }

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
//     (L-2)-column subsets, so the join files kept slices under subsets
//     and pairs the members of each subset bucket,
//  3. merge pairs into combined slices (P) and discard slices with multiple
//     assignments per original feature. Both parents are feature-disjoint
//     and differ in one column each, so the merged slice is valid iff those
//     two columns belong to distinct features,
//  4. deduplicate (the paper's ND-array IDs and dedup matrix M) by forming
//     each merged slice from one pair of its parents. With missing-parent
//     handling on, a candidate needs all L parents, so the join is
//     Apriori-gen's prefix join: each kept slice is filed under its first
//     L-2 columns only, and each union is met exactly once, from its prefix
//     pair (the union without its last column and without its second to
//     last). Its other L-2 parents are found in the buckets of the first
//     parent's other (L-2)-column subsets; a union that lacks one fails
//     np = L and is dropped before any bound is computed. Under
//     DisableParentHandling the join files each kept slice under all of its
//     L-1 subsets, meets each union once per pair of its kept parents,
//     forms it from the canonical pair (the two with the smallest keep
//     indices) and looks up its other parents in an index of the kept
//     slices. Either way the join finds np — the paper's
//     rowSums(M·(P1+P2) ≠ 0) — and the min-bounds over all kept parents
//     without a level-wide table, and
//  5. prune by Equation 9: ⌈ss⌉ >= σ ∧ ⌈sc⌉ > sc_k ∧ ⌈sc⌉ >= 0 ∧ np = L,
//     with the score bound over all parents first, and over each pair of
//     them only when that one is within scorer.boundMargin of failing.
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
// per pair, candidate or shard. It returns the surviving candidates as one
// level: the workers' survivors copied shard by shard into one right-sized
// int32 arena, which the level keeps as is, and a per-rule pruning
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
	prefix := dedup && !cfg.DisableParentHandling
	filter := !cfg.DisableScorePruning && (!dedup || prefix)
	// Sized for every input slice, so one pass decides each slice once and
	// the filter costs no allocation.
	keep := make([]int, 0, prev.size())
	dropped := 0
	for i := range prev.ss {
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
		dedup: dedup, prefix: prefix,
		shards: make([]shardOut, shards),
		arenas: make([][]int32, workers),
	}
	j.buildBuckets()
	if j.dedup && !prefix {
		// A deduplicated frontier holds distinct slices, so entry k of the
		// index is kept slice k.
		j.parents = newColSet(L-1, nk)
		for _, i := range keep {
			j.parents.index(prev.slice(i))
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
	flat := make([]int32, n*L)
	k := 0
	for _, sh := range j.shards {
		copy(flat[k*L:], j.arenas[sh.worker][sh.lo*L:sh.hi*L])
		k += sh.hi - sh.lo
	}
	return newLevel(L, flat), pr
}

// join is one level's candidate generation: its read-only inputs, the
// subset buckets and parent index built from them, and what the workers
// write. Workers read their inputs from here, not from the run's state,
// which thereby stays on its caller's stack. With prefix set it is the
// prefix join, which meets each union once; otherwise it meets each union
// once per pair of its kept parents and, with dedup, keeps the canonical
// pair's meeting.
type join struct {
	prev   *level
	keep   []int // kept slice indices into prev, ascending
	L      int
	cfg    Config
	featOf []int
	sc     scorer
	sck    float64
	dedup  bool
	prefix bool // dedup with missing-parent handling: join on (L-2)-prefixes

	// Subset buckets. A kept slice has one slot per subset it is filed
	// under: slot s = a*w+d-lo stands for kept slice a without its d-th
	// column, for d in [lo, L-1): every d (lo = 0, w = L-1), or in the
	// prefix join only d = L-2, its (L-2)-prefix (lo = L-2, w = 1). A
	// bucket lists the slots of one (L-2)-column subset: slot s sits at
	// member index at[s] of a bucket that ends at end[s], and member m is
	// kept slice member[m], whose column outside the subset is extra[m].
	// Members sit in ascending keep index, and in the prefix join in
	// ascending extra column. Bucket b spans members [first[b], first[b+1]).
	// At L > 2, subsets numbers the buckets by their columns.
	at, end, member, extra []int32
	first                  []int32
	subsets                colSet

	parents colSet // entry k: kept slice k's columns (canonical pair only)

	next      atomic.Int64 // next shard to claim
	generated atomic.Int64 // candidates generated before pruning
	shards    []shardOut
	arenas    [][]int32 // per worker, its survivors' columns, L per candidate
}

// shardOut records one shard's work: the worker that did it, its survivors'
// range in that worker's arena (in candidates) and its per-rule counts.
type shardOut struct {
	worker, lo, hi int
	pr             pruneStats
}

// buildBuckets files every kept slice under its (L-2)-column subsets: its
// prefix alone in the prefix join, else each of them. At L == 2 every subset
// is empty: one bucket holds every kept slice.
func (j *join) buildBuckets() {
	lo, w := 0, j.L-1
	if j.prefix {
		lo, w = j.L-2, 1
	}
	nk := len(j.keep)
	ns := nk * w
	buf := make([]int32, 4*ns)
	j.at, j.end, j.member, j.extra = buf[:ns], buf[ns:2*ns], buf[2*ns:3*ns], buf[3*ns:]
	bucket := j.end // each slot's bucket id until end replaces it
	nb := 1         // at L == 2 every slot is in bucket 0
	if j.L > 2 {
		j.subsets = newColSet(j.L-2, ns)
		sub := make([]int32, j.L-2)
		for a, i := range j.keep {
			cols := j.prev.slice(i)
			for d := lo; d < lo+w; d++ {
				copy(sub, cols[:d])
				copy(sub[d:], cols[d+1:])
				b, _ := j.subsets.index(sub)
				bucket[a*w+d-lo] = int32(b)
			}
		}
		nb = j.subsets.len()
	}
	// Counting sort of the slots by bucket; filling bucket b advances
	// first[b+1] from b's first member index to its end, which is bucket
	// b+1's first.
	j.first = make([]int32, nb+2)
	for _, b := range bucket {
		j.first[b+2]++
	}
	for b := 2; b < len(j.first); b++ {
		j.first[b] += j.first[b-1]
	}
	fill := func(a int) {
		cols := j.prev.slice(j.keep[a])
		for d := lo; d < lo+w; d++ {
			s := a*w + d - lo
			m := j.first[bucket[s]+1]
			j.first[bucket[s]+1]++
			j.at[s], j.member[m], j.extra[m] = m, int32(a), cols[d]
		}
	}
	if j.prefix {
		// Fill in ascending extra column, by a counting sort on it, so each
		// bucket lists its members in that order.
		buf := make([]int32, nk+len(j.featOf)+1)
		order, at := buf[:nk], buf[nk:]
		for _, i := range j.keep {
			at[j.prev.slice(i)[lo]+1]++
		}
		for c := 1; c < len(at); c++ {
			at[c] += at[c-1]
		}
		for a, i := range j.keep {
			c := j.prev.slice(i)[lo]
			order[at[c]] = int32(a)
			at[c]++
		}
		for _, a := range order {
			fill(int(a))
		}
	} else {
		for a := range j.keep {
			fill(a)
		}
	}
	for s, b := range bucket {
		j.end[s] = j.first[b+1]
	}
	j.first = j.first[:nb+1]
}

// work claims shards until none is left and joins each shard's kept slices
// with their later partners. It stops early once the level has generated
// more candidates than MaxCandidatesPerLevel: the level is then discarded
// whatever the remaining shards hold. Everything a worker writes per pair
// lives in locals or in its own scratch, which a trailing cache line keeps
// apart from any other worker's.
func (j *join) work(w int) {
	L, limit := j.L, int64(j.cfg.MaxCandidatesPerLevel)
	// The merged slice and a lookup key; the kept parents, and in the prefix
	// join a cursor and an end per sibling bucket.
	ids, idx := make([]int32, 2*L+16), make([]int, 3*L+8)
	sc := joinScratch{ids[:L], ids[L : 2*L-1], idx[:L], idx[L : 2*L-2], idx[2*L : 3*L-2]}
	cols := j.arenas[w]
	for {
		s := int(j.next.Add(1)) - 1
		if s >= len(j.shards) {
			break
		}
		lo := len(cols) / L
		var pr pruneStats
		for a := s * joinShard; a < min((s+1)*joinShard, len(j.keep)); a++ {
			if gen := int64(pr.generated(len(cols)/L - lo)); gen+j.generated.Load() > limit {
				j.generated.Add(gen)
				return
			}
			if j.prefix {
				cols = j.joinPrefix(a, cols, &pr, sc)
			} else {
				cols = j.joinSubsets(a, cols, &pr, sc)
			}
		}
		j.shards[s] = shardOut{worker: w, lo: lo, hi: len(cols) / L, pr: pr}
		j.generated.Add(int64(pr.generated(len(cols)/L - lo)))
	}
	j.arenas[w] = cols
}

// joinScratch is one worker's scratch space (see work).
type joinScratch struct {
	union, key     []int32
	par, cur, stop []int
}

// joinPrefix joins kept slice a with the later members of its prefix
// bucket, whose extra columns are larger than its own, and appends the
// survivors to cols. The union with partner b is a's columns plus b's extra
// column xb. Its other L-2 parents, the union without each of a's first
// L-2 columns, are filed under a's columns without that column, a sibling
// bucket, with xb as their extra. So one walk over each sibling bucket, in
// step with the partners, both in ascending extra column, finds them all.
func (j *join) joinPrefix(a int, cols []int32, pr *pruneStats, sc joinScratch) []int32 {
	if j.at[a]+1 == j.end[a] {
		return cols // a is its bucket's last member
	}
	L := j.L
	ca := j.prev.slice(j.keep[a])
	fa := j.featOf[ca[L-2]]
	// A sibling bucket that does not exist leaves every union of a without
	// that parent.
	siblings, key := true, sc.key[:L-2]
	for q := 0; q < L-2 && siblings; q++ {
		copy(key, ca[:q])
		copy(key[q:], ca[q+1:])
		b := j.subsets.find(key)
		if siblings = b >= 0; siblings {
			sc.cur[q], sc.stop[q] = int(j.first[b]), int(j.first[b+1])
		}
	}
	copy(sc.union, ca)
	for m := j.at[a] + 1; m < j.end[a]; m++ {
		xb := j.extra[m]
		if j.featOf[xb] == fa {
			continue
		}
		sc.par[0], sc.par[1] = a, int(j.member[m])
		found := siblings
		for q := 0; q < L-2 && found; q++ {
			c, stop := sc.cur[q], sc.stop[q]
			for c < stop && j.extra[c] < xb {
				c++
			}
			sc.cur[q] = c
			if found = c < stop && j.extra[c] == xb; found {
				sc.par[2+q] = int(j.member[c])
			}
		}
		if !found {
			pr.parents++
			continue
		}
		if j.prune(sc.par, pr) {
			sc.union[L-1] = xb
			cols = append(reserve(cols, L), sc.union...)
		}
	}
	return cols
}

// joinSubsets joins kept slice a with its later partners in each of its
// subset buckets and appends the survivors to cols: every valid pair
// without dedup, and with dedup each union from its canonical pair.
func (j *join) joinSubsets(a int, cols []int32, pr *pruneStats, sc joinScratch) []int32 {
	L := j.L
	ca := j.prev.slice(j.keep[a])
	for d := range ca {
		sa := a*(L-1) + d
		fa := j.featOf[ca[d]]
		for m := j.at[sa] + 1; m < j.end[sa]; m++ {
			if j.featOf[j.extra[m]] == fa {
				continue
			}
			b := int(j.member[m])
			mergeInto(sc.union, ca, j.prev.slice(j.keep[b]))
			sc.par[0], sc.par[1] = a, b
			np := 2
			if j.dedup {
				var canonical bool
				if np, canonical = j.otherParents(sc.union, ca, d, b, sc.key, sc.par); !canonical {
					continue
				}
			}
			if j.prune(sc.par[:np], pr) {
				cols = append(reserve(cols, L), sc.union...)
			}
		}
	}
	return cols
}

// otherParents looks up the kept parents of the merged slice union other
// than its partners a (columns ca, joined without column d) and b: each
// lacks one of the columns a and b share. It appends them to par after a
// and b and returns np, the number of kept parents. It stops and reports
// false as soon as one of them lies below b, which makes another pair the
// canonical one.
func (j *join) otherParents(union, ca []int32, d, b int, key []int32, par []int) (np int, canonical bool) {
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

// prune applies Equation 9's score bound to the candidate whose kept
// parents are par, as the paper's pair-wise join applies it to every pair
// of them and then to the group, and counts the rule that removes it in pr.
// It reports whether the candidate survives. The size bound always holds
// here (see pruneStats), and the missing-parent rule ran before.
//
// The bound over the minima of all parents comes first. In real arithmetic
// it is at most every pair's, so when it clears sc_k and 0 by
// scorer.boundMargin, taken at the parents' largest sm, every pair's
// computed bound clears them too, and the candidate survives without
// another bound. Only otherwise are the pairs bounded one by one: a failing
// pair is pruned itself without dedup, and with dedup it makes the
// candidate dead. Two parents bound the candidate exactly as their pair
// does.
func (j *join) prune(par []int, pr *pruneStats) bool {
	if j.cfg.DisableScorePruning {
		return true
	}
	prev := j.prev
	ss, se, sm, smMax := math.Inf(1), math.Inf(1), math.Inf(1), 0.0
	for _, p := range par {
		i := j.keep[p]
		ss, se, sm, smMax = min(ss, prev.ss[i]), min(se, prev.se[i]), min(sm, prev.sm[i]), max(smMax, prev.sm[i])
	}
	ub := j.sc.upperBound(ss, se, sm)
	if len(par) > 2 {
		if d := j.sc.boundMargin(smMax); ub > j.sck+d && ub >= d {
			return true
		}
		for x, p := range par {
			for _, q := range par[x+1:] {
				i, k := j.keep[p], j.keep[q]
				if !j.beats(j.sc.upperBound(min(prev.ss[i], prev.ss[k]), min(prev.se[i], prev.se[k]), min(prev.sm[i], prev.sm[k]))) {
					pr.dead++
					return false
				}
			}
		}
	}
	switch {
	case j.beats(ub):
		return true
	case len(par) > 2:
		pr.score++
	case j.dedup:
		pr.dead++
	default:
		pr.pairScore++
	}
	return false
}

// beats reports whether the score bound ub passes Equation 9's score rule,
// ⌈sc⌉ > sc_k ∧ ⌈sc⌉ >= 0.
func (j *join) beats(ub float64) bool { return ub > j.sck && ub >= 0 }

// reserve returns s with room for n more elements, doubling its capacity
// when it has to grow, so an arena of c elements grows O(log c) times.
func reserve(s []int32, n int) []int32 {
	if len(s)+n <= cap(s) {
		return s
	}
	grown := make([]int32, len(s), 2*cap(s)+joinShard*n)
	copy(grown, s)
	return grown
}

// withoutCol writes the sorted column list cols without column c into dst,
// which has room for one column less.
func withoutCol(dst, cols []int32, c int32) {
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
func mergeInto(dst, a, b []int32) {
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
	arena []int32
	slots []int32 // entry index + 1 per slot, 0 = empty; len is a power of two
}

// newColSet returns an empty set that holds n entries without growing.
func newColSet(width, n int) colSet {
	size := 64
	for size < 2*n {
		size *= 2
	}
	return colSet{width: width, arena: make([]int32, 0, width*n), slots: make([]int32, size)}
}

func (s *colSet) len() int { return len(s.arena) / s.width }

func (s *colSet) at(k int) []int32 { return s.arena[k*s.width : (k+1)*s.width] }

// index returns the entry index of cols, appending a copy of cols when it is
// absent; added reports whether it did. The table stays at most half full.
func (s *colSet) index(cols []int32) (k int, added bool) {
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
func (s *colSet) find(cols []int32) int {
	if len(s.slots) == 0 {
		return -1
	}
	return int(s.slots[s.probe(cols)]) - 1
}

// probe returns the slot that holds cols or, when cols is absent, the empty
// slot where it belongs.
func (s *colSet) probe(cols []int32) uint64 {
	mask := uint64(len(s.slots) - 1)
	for p := hashCols(cols) & mask; ; p = (p + 1) & mask {
		if e := s.slots[p]; e == 0 || slices.Equal(s.at(int(e-1)), cols) {
			return p
		}
	}
}

// grow doubles the table (the first one has 64 slots) and reinserts every
// entry.
func (s *colSet) grow() {
	size := 2 * len(s.slots)
	if size == 0 {
		size = 64
	}
	s.slots = make([]int32, size)
	s.rehash()
}

// rehash inserts every entry, in index order, into the empty table.
func (s *colSet) rehash() {
	mask := uint64(len(s.slots) - 1)
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
func hashCols(cols []int32) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		h = (h ^ uint64(c)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

func lessCols(a, b []int32) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}
