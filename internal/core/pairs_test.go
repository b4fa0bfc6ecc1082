package core

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestMergeInto(t *testing.T) {
	cases := []struct {
		name string
		a, b []int
		want int
		out  []int // nil: the union does not have want entries
	}{
		{"one shared column", []int{1, 2}, []int{1, 3}, 3, []int{1, 2, 3}},
		{"union too large", []int{1, 2}, []int{3, 4}, 3, nil},
		{"union too small", []int{1, 2}, []int{1, 2}, 3, nil},
		{"level-2 join", []int{0}, []int{5}, 2, []int{0, 5}},
		{"level-2 join, reversed", []int{5}, []int{0}, 2, []int{0, 5}},
		{"interleaved", []int{1, 4, 9}, []int{1, 4, 7}, 4, []int{1, 4, 7, 9}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dst := make([]int, c.want)
			ok := mergeInto(dst, c.a, c.b)
			if ok != (c.out != nil) {
				t.Fatalf("mergeInto(%v, %v) into %d = %v, want %v", c.a, c.b, c.want, ok, c.out != nil)
			}
			if ok && !reflect.DeepEqual(dst, c.out) {
				t.Fatalf("mergeInto(%v, %v) wrote %v, want %v", c.a, c.b, dst, c.out)
			}
		})
	}
}

// TestColSetIndex checks the dedup table: index must hand out one index per
// distinct list, in insertion order, however the lists hash.
func TestColSetIndex(t *testing.T) {
	// Many distinct lists force the table through several doublings.
	var many [][]int
	var manyIdx []int
	for k := 0; k < 1000; k++ {
		many = append(many, []int{k / 100, 100 + k/10%10, 200 + k%10})
		manyIdx = append(manyIdx, k)
	}
	many = append(many, many[0], many[999], many[500])
	manyIdx = append(manyIdx, 0, 999, 500)

	// Two distinct lists with the same home slot in the first table: the
	// second must probe past the first, and both must stay findable.
	first := []int{0, 1}
	var clash []int
	for c := 2; clash == nil; c++ {
		if cand := []int{0, c}; hashCols(cand)&63 == hashCols(first)&63 {
			clash = cand
		}
	}

	cases := []struct {
		name  string
		width int
		lists [][]int
		want  []int // index of each list, in order
	}{
		{"equal lists share an index", 3, [][]int{{1, 2, 3}, {1, 2, 3}}, []int{0, 0}},
		{"one column differs", 3, [][]int{{1, 2, 3}, {1, 2, 4}, {0, 2, 3}, {1, 2, 3}}, []int{0, 1, 2, 0}},
		{"ids at or above 2^24", 2, [][]int{{1 << 20, 1 << 24}, {1 << 20, 1<<24 + 1}, {1 << 20, 1 << 30}, {1 << 20, 1<<24 + 1}}, []int{0, 1, 2, 1}},
		{"growth keeps indices and order", 3, many, manyIdx},
		{"probing compares full lists", 2, [][]int{first, clash, first, clash}, []int{0, 1, 0, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := colSet{width: c.width}
			distinct := 0
			for n, cols := range c.lists {
				k, added := s.index(cols)
				if k != c.want[n] {
					t.Fatalf("list %d %v: index %d, want %d", n, cols, k, c.want[n])
				}
				if added != (k == distinct) {
					t.Fatalf("list %d %v: added = %v at index %d with %d entries", n, cols, added, k, distinct)
				}
				if added {
					distinct++
				}
				if !equalCols(s.at(k), cols) {
					t.Fatalf("entry %d holds %v, want %v", k, s.at(k), cols)
				}
			}
			if s.len() != distinct {
				t.Fatalf("%d entries, want %d", s.len(), distinct)
			}
		})
	}
}

// TestPairCandidatesAllocs pins candidate generation's allocation diet: one
// call allocates per level (arena, table and output growth), never per pair
// or per candidate.
func TestPairCandidatesAllocs(t *testing.T) {
	const features, dom = 10, 6
	featOf := make([]int, features*dom)
	for c := range featOf {
		featOf[c] = c / dom
	}
	// Level 2: every cross-feature column pair, all surviving input
	// filtering, with varied statistics.
	rng := rand.New(rand.NewSource(5))
	prev := &level{}
	for c1 := range featOf {
		for c2 := c1 + 1; c2 < len(featOf); c2++ {
			if featOf[c1] == featOf[c2] {
				continue
			}
			ss := float64(50 + rng.Intn(250))
			prev.cols = append(prev.cols, []int{c1, c2})
			prev.ss = append(prev.ss, ss)
			prev.se = append(prev.se, ss*(0.2+0.6*rng.Float64()))
			prev.sm = append(prev.sm, 1)
		}
	}
	const n = 1000
	e := make([]float64, n)
	for i := range e {
		e[i] = 0.1
	}
	cfg := Config{K: 4, Sigma: 5, Alpha: 0.95}.WithDefaults(n)
	st := &state{cfg: cfg, sc: newScorer(n, e, cfg.Alpha, cfg.Sigma), featOf: featOf}

	var cand *level
	allocs := testing.AllocsPerRun(2, func() {
		cand, _ = st.pairCandidates(prev, 3, 0)
	})
	// Every cross-feature triple has all three parents.
	if want := 120 * dom * dom * dom; cand.size() != want {
		t.Fatalf("fixture yields %d candidates, want %d", cand.size(), want)
	}
	if allocs >= 200 {
		t.Fatalf("pairCandidates made %.0f allocations for %d candidates, want < 200", allocs, cand.size())
	}
}

func TestFeaturesDisjoint(t *testing.T) {
	st := &state{featOf: []int{0, 0, 1, 1, 2}}
	if !st.featuresDisjoint([]int{0, 2, 4}) {
		t.Error("columns of distinct features reported as clashing")
	}
	if st.featuresDisjoint([]int{0, 1}) {
		t.Error("two columns of feature 0 reported disjoint")
	}
	if st.featuresDisjoint([]int{2, 3, 4}) {
		t.Error("columns 2,3 share feature 1")
	}
}

func TestLessCols(t *testing.T) {
	if !lessCols([]int{1, 2}, []int{1, 3}) {
		t.Error("lexicographic comparison failed")
	}
	if !lessCols([]int{1}, []int{1, 0}) {
		t.Error("prefix must compare smaller")
	}
	if lessCols([]int{2}, []int{1, 5}) {
		t.Error("ordering inverted")
	}
}
