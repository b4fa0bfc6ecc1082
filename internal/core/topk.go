package core

import (
	"slices"
	"sort"
)

// topK maintains the current best K slices under the problem constraints
// sc > 0 and |S| >= sigma (Section 4.5). Its minimum retained score is the
// monotonically increasing pruning bound sc_k of Section 3.2.
type topK struct {
	k       int
	sigma   float64
	entries []tkEntry
}

// tkEntry is one retained slice. cols is a capacity-capped view of its
// level's arena (level.slice), shared, never written.
type tkEntry struct {
	cols  []int32
	score float64
	ss    float64
	se    float64
	sm    float64
}

func newTopK(k int, sigma float64) *topK {
	return &topK{k: k, sigma: sigma}
}

// offer considers one evaluated slice for inclusion.
func (t *topK) offer(cols []int32, score, ss, se, sm float64) {
	if score <= 0 || ss < t.sigma {
		return
	}
	if len(t.entries) == t.k && !t.entries[t.k-1].worse(score, ss, cols) {
		return
	}
	// A slice identity may occupy at most one top-K slot. With candidate
	// deduplication disabled (the Figure 3 config-5 ablation) the same slice
	// is enumerated once per parent pair and re-offered with bit-identical
	// statistics; without this check the duplicates would crowd genuinely
	// distinct slices out of the top-K and break the exactness guarantee.
	for i := range t.entries {
		if t.entries[i].score == score && slices.Equal(t.entries[i].cols, cols) {
			return
		}
	}
	e := tkEntry{cols: cols, score: score, ss: ss, se: se, sm: sm}
	pos := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].worse(score, ss, cols) })
	t.entries = append(t.entries, tkEntry{})
	copy(t.entries[pos+1:], t.entries[pos:])
	t.entries[pos] = e
	if len(t.entries) > t.k {
		t.entries = t.entries[:t.k]
	}
}

// worse reports whether e ranks at or below a slice with the given score,
// size and columns in the top-K order: score descending, then size
// descending, then columns ascending. The early reject of a full list and
// the insertion search share it, so which member of an exact (score, size)
// tie holds rank K does not depend on the order slices are offered in.
func (e *tkEntry) worse(score, ss float64, cols []int32) bool {
	if e.score != score {
		return e.score < score
	}
	if e.ss != ss {
		return e.ss < ss
	}
	return !lessCols(e.cols, cols)
}

// threshold returns sc_k: the K-th best score when the list is full, else 0
// (every valid slice must beat 0 anyway).
func (t *topK) threshold() float64 {
	if len(t.entries) < t.k {
		return 0
	}
	return t.entries[len(t.entries)-1].score
}
