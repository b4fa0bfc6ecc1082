package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"sliceline/internal/datagen"
	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

func TestMergeInto(t *testing.T) {
	cases := []struct {
		name string
		a, b []int
		out  []int
	}{
		{"one shared column", []int{1, 2}, []int{1, 3}, []int{1, 2, 3}},
		{"level-2 join", []int{0}, []int{5}, []int{0, 5}},
		{"level-2 join, reversed", []int{5}, []int{0}, []int{0, 5}},
		{"interleaved", []int{1, 4, 9}, []int{1, 4, 7}, []int{1, 4, 7, 9}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dst := make([]int, len(c.out))
			mergeInto(dst, c.a, c.b)
			if !reflect.DeepEqual(dst, c.out) {
				t.Fatalf("mergeInto(%v, %v) wrote %v, want %v", c.a, c.b, dst, c.out)
			}
		})
	}
}

// TestColSetIndex checks the column-list table: index must hand out one
// index per distinct list, in insertion order, however the lists hash, and
// find must return it, or -1 before the list is added.
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
				wantFind := -1 // a list not yet added
				if c.want[n] < distinct {
					wantFind = c.want[n]
				}
				if got := s.find(cols); got != wantFind {
					t.Fatalf("list %d %v: find = %d before index, want %d", n, cols, got, wantFind)
				}
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
				if got := s.find(cols); got != k {
					t.Fatalf("list %d %v: find = %d after index, want %d", n, cols, got, k)
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

// naiveSizeTally counts how often naivePairCandidates' size bound fails: for
// a pair of parents, and for a merged slice's parents as a group.
// pairCandidates has no such rule, because its input filter makes the bound
// always hold, so both must stay 0.
type naiveSizeTally struct{ pair, group int }

// naivePairCandidates states pairCandidates' semantics in their plainest
// form, the paper's literal rule set: every pair of kept slices in O(n²);
// partners share L-2 columns and have a feature-disjoint union; with dedup,
// each union accumulates its min-bounds, parent-pair count and dead flag in
// a map; every bound of Equation 9 is applied, the size bound included.
// With dedup and missing-parent handling, the bounds and their counts apply
// only to unions whose L parents are all kept; a union with a kept prefix
// pair (the union without its last column and without its second to last)
// and another parent missing counts as parents, and any other union is not
// counted. With filter, a slice that passes σ and se > 0 is still dropped
// from the input when its own bound fails the score bound by more than the
// rounding margin, wherever score pruning is on and, at dedup levels,
// missing-parent handling too. It returns the surviving candidates' column
// lists as sorted keys, the per-rule counts, the size-bound tallies and the
// number of candidates generated before pruning, which
// MaxCandidatesPerLevel caps.
func naivePairCandidates(st *state, prev *level, L int, sck float64, filter bool) ([]string, pruneStats, naiveSizeTally, int) {
	cfg := st.cfg
	sigma := float64(cfg.Sigma)
	minSS := sigma
	if cfg.DisableSizePruning {
		minSS = 1
	}
	dedup := L > 2 && !cfg.DisableDedup
	prefix := dedup && !cfg.DisableParentHandling
	filter = filter && !cfg.DisableScorePruning && !(dedup && cfg.DisableParentHandling)
	var pr pruneStats
	var keep []int
	kept := map[string]bool{}
	for i := range prev.cols {
		if prev.ss[i] < minSS || prev.se[i] <= 0 {
			continue
		}
		if filter {
			ub, d := st.sc.upperBound(prev.ss[i], prev.se[i], prev.sm[i]), st.sc.boundMargin(prev.sm[i])
			if ub <= sck-d || ub < -d {
				pr.dropped++
				continue
			}
		}
		keep = append(keep, i)
		kept[fmt.Sprint(prev.cols[i])] = true
	}
	type cand struct {
		cols       []int
		ss, se, sm float64
		pairs      int
		dead       bool
	}
	groups := map[string]*cand{}
	var cands []*cand // first-seen order; every surviving pair without dedup
	var sizes naiveSizeTally
	for x, i := range keep {
		for _, j := range keep[x+1:] {
			var extra []int // columns of j not in i
			for _, c := range prev.cols[j] {
				shared := false
				for _, d := range prev.cols[i] {
					shared = shared || c == d
				}
				if !shared {
					extra = append(extra, c)
				}
			}
			if len(extra) != 1 {
				continue
			}
			cols := append(append([]int(nil), prev.cols[i]...), extra[0])
			sort.Ints(cols)
			disjoint := true
			for x, c := range cols {
				for _, d := range cols[x+1:] {
					disjoint = disjoint && st.featOf[c] != st.featOf[d]
				}
			}
			if !disjoint {
				continue
			}
			ss := math.Min(prev.ss[i], prev.ss[j])
			se := math.Min(prev.se[i], prev.se[j])
			sm := math.Min(prev.sm[i], prev.sm[j])
			bySize := !cfg.DisableSizePruning && ss < sigma
			byScore := false
			if bySize {
				sizes.pair++
			} else if !cfg.DisableScorePruning {
				ub := st.sc.upperBound(ss, se, sm)
				byScore = ub <= sck || ub < 0
			}
			if !dedup {
				switch {
				case bySize:
				case byScore:
					pr.pairScore++
				default:
					cands = append(cands, &cand{cols: cols, ss: ss, se: se, sm: sm})
				}
				continue
			}
			key := fmt.Sprint(cols)
			g := groups[key]
			if g == nil {
				g = &cand{cols: cols, ss: math.Inf(1), se: math.Inf(1), sm: math.Inf(1)}
				groups[key] = g
				cands = append(cands, g)
			}
			g.ss, g.se, g.sm = math.Min(g.ss, ss), math.Min(g.se, se), math.Min(g.sm, sm)
			g.pairs++
			g.dead = g.dead || bySize || byScore
		}
	}
	out := []string{}
	generated := 0
	for _, g := range cands {
		if prefix && g.pairs != L*(L-1)/2 {
			noLast := g.cols[:L-1]
			noSecondLast := append(append([]int(nil), g.cols[:L-2]...), g.cols[L-1])
			if kept[fmt.Sprint(noLast)] && kept[fmt.Sprint(noSecondLast)] {
				pr.parents++
			}
			continue
		}
		generated++
		if g.dead {
			pr.dead++
			continue
		}
		if !cfg.DisableSizePruning && g.ss < sigma {
			sizes.group++
			continue
		}
		ub := st.sc.upperBound(g.ss, g.se, g.sm)
		if !cfg.DisableScorePruning && (ub <= sck || ub < 0) {
			pr.score++
			continue
		}
		out = append(out, fmt.Sprint(g.cols))
	}
	sort.Strings(out)
	return out, pr, sizes, generated
}

// roundingInversion draws from TestBoundMarginCoversRounding's adversarial
// family until the child's score bound lies above its parent's, which is
// >= 0: a scorer, parent statistics (ss, e, m) with ss at or above the
// breakpoint e/m, and the child (bp-1, e, m) one integer step below it.
func roundingInversion(rng *rand.Rand) (sc scorer, parent, child [3]float64) {
	for {
		n := 2 + rng.Intn(1_000_000)
		sigma := 1 + rng.Intn(min(n-1, 100))
		alpha := 1 - math.Ldexp(1, -1-rng.Intn(50))
		if rng.Intn(2) == 0 {
			alpha = 0.001 + 0.999*rng.Float64()
		}
		sc = scorer{n: float64(n), avgErr: math.Ldexp(0.5+rng.Float64(), -rng.Intn(20)), alpha: alpha, sigma: float64(sigma)}
		m := math.Ldexp(0.5+rng.Float64(), -rng.Intn(4))
		bp := sigma + 1 + rng.Intn(n-sigma)
		e := float64(bp) * m
		for k := rng.Intn(4); k > 0; k-- {
			e = math.Nextafter(e, math.Inf(1))
		}
		parent = [3]float64{float64(bp + rng.Intn(n-bp+1)), e, m}
		child = [3]float64{float64(bp - 1), e, m}
		ubP, ubC := sc.upperBound(parent[0], parent[1], parent[2]), sc.upperBound(child[0], child[1], child[2])
		if ubC > ubP && ubP >= 0 {
			return sc, parent, child
		}
	}
}

// randomFrontier draws a shuffled level-(L-1) frontier of distinct,
// feature-disjoint slices over featOf's columns, with random statistics:
// some slices fail input filtering, and a frontier drawn sparsely leaves
// many level-L candidates with missing parents.
func randomFrontier(rng *rand.Rand, featOf []int, dom, L, size int) *level {
	features := len(featOf) / dom
	prev := &level{}
	seen := map[string]bool{}
	for tries := 0; prev.size() < size && tries < 20*size; tries++ {
		feats := rng.Perm(features)[:L-1]
		sort.Ints(feats)
		cols := make([]int, L-1)
		for k, f := range feats {
			cols[k] = f*dom + rng.Intn(dom)
		}
		if key := fmt.Sprint(cols); !seen[key] {
			seen[key] = true
			ss := float64(1 + rng.Intn(300))
			se := ss * rng.Float64()
			if rng.Intn(10) == 0 {
				se = 0
			}
			prev.cols = append(prev.cols, cols)
			prev.ss = append(prev.ss, ss)
			prev.se = append(prev.se, se)
			prev.sm = append(prev.sm, 0.05+0.95*rng.Float64())
		}
	}
	return prev
}

// withDuplicates returns prev with about a tenth of its slices repeated, in
// shuffled order: the shape of a frontier generated under DisableDedup.
func withDuplicates(rng *rand.Rand, prev *level) *level {
	out := &level{}
	add := func(i int) {
		out.cols = append(out.cols, prev.cols[i])
		out.ss = append(out.ss, prev.ss[i])
		out.se = append(out.se, prev.se[i])
		out.sm = append(out.sm, prev.sm[i])
	}
	for i := range prev.cols {
		add(i)
		if rng.Intn(10) == 0 {
			add(i)
		}
	}
	rng.Shuffle(out.size(), func(a, b int) {
		out.cols[a], out.cols[b] = out.cols[b], out.cols[a]
		out.ss[a], out.ss[b] = out.ss[b], out.ss[a]
		out.se[a], out.se[b] = out.se[b], out.se[a]
		out.sm[a], out.sm[b] = out.sm[b], out.sm[a]
	})
	return out
}

// TestPairCandidatesMatchNaive checks the production join against
// naivePairCandidates on random shuffled frontiers under every pruning
// switch, at 1, 2 and 7 workers. The survivors must equal
// those of the unfiltered naive join, so the input filter never changes
// what is evaluated; the per-rule counts and the cap boundary must equal
// the filtered model's; and the output order must not depend on the worker
// count. It is the only test of the per-rule counts: the reference
// comparison in TestLevelCountsMatchReference sees only Candidates and
// Valid. One more frontier comes from TestBoundMarginCoversRounding's
// adversarial family: a pair of a candidate's parents fails the score bound
// by rounding while the bound over all of them passes by less than the
// margin, so the candidate is dead, and the join's one-bound shortcut must
// not accept it.
func TestPairCandidatesMatchNaive(t *testing.T) {
	defer matrix.SetMaxWorkers(matrix.SetMaxWorkers(1))
	configs := []Config{
		{},
		{DisableSizePruning: true},
		{DisableScorePruning: true},
		{DisableParentHandling: true},
		{DisableDedup: true},
		{DisableSizePruning: true, DisableScorePruning: true, DisableParentHandling: true, DisableDedup: true},
	}
	const n = 1000
	e := make([]float64, n)
	for i := range e {
		e[i] = 0.3
	}
	rng := rand.New(rand.NewSource(23))
	levels, maxShards := 0, 0
	var fired pruneStats
	check := func(trial, ci int, st *state, prev *level, L int, sck float64) pruneStats {
		t.Helper()
		want, _, sizes, _ := naivePairCandidates(st, prev, L, sck, false)
		filtered, wantPr, filteredSizes, generated := naivePairCandidates(st, prev, L, sck, true)
		if sizes != (naiveSizeTally{}) || filteredSizes != (naiveSizeTally{}) {
			t.Fatalf("trial %d config %d (L=%d): the size bound pruned %+v unfiltered and %+v filtered, want none",
				trial, ci, L, sizes, filteredSizes)
		}
		if !reflect.DeepEqual(filtered, want) {
			t.Fatalf("trial %d config %d (L=%d): the filtered naive join keeps %d candidates, unfiltered %d",
				trial, ci, L, len(filtered), len(want))
		}
		fired.add(wantPr)
		maxShards = max(maxShards, (prev.size()+joinShard-1)/joinShard)

		var first *level
		var firstPr pruneStats
		for _, workers := range []int{1, 2, 7} {
			matrix.SetMaxWorkers(workers)
			got, pr := st.pairCandidates(prev, L, sck)
			if got == nil {
				t.Fatalf("trial %d config %d (L=%d): uncapped generation returned nil", trial, ci, L)
			}
			if pr != wantPr {
				t.Fatalf("trial %d config %d (L=%d, %d workers): prune counts %+v, naive %+v", trial, ci, L, workers, pr, wantPr)
			}
			keys := make([]string, got.size())
			for k, cols := range got.cols {
				keys[k] = fmt.Sprint(cols)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("trial %d config %d (L=%d, %d workers): %d candidates differ from naive %d",
					trial, ci, L, workers, len(keys), len(want))
			}
			if first == nil {
				first, firstPr = got, pr
			} else if !reflect.DeepEqual(got.cols, first.cols) || pr != firstPr {
				t.Fatalf("trial %d config %d (L=%d): output at %d workers differs from 1 worker", trial, ci, L, workers)
			}
		}

		// The cap counts candidates before pruning: the filtered naive
		// count passes, one less returns nil at every worker count.
		for _, limit := range []int{generated, generated - 1} {
			capped := *st
			capped.cfg.MaxCandidatesPerLevel = limit
			for _, workers := range []int{1, 2, 7} {
				matrix.SetMaxWorkers(workers)
				if got, _ := capped.pairCandidates(prev, L, sck); (got == nil) != (limit < generated) {
					t.Fatalf("trial %d config %d (L=%d, %d workers): cap %d of %d returned nil = %v",
						trial, ci, L, workers, limit, generated, got == nil)
				}
			}
		}
		if L > 2 && len(want) > 0 {
			levels++
		}
		return wantPr
	}
	for trial := 0; trial < 16; trial++ {
		L := 2 + trial%4
		features, dom := 5+rng.Intn(4), 2+rng.Intn(3)
		size := 150 + rng.Intn(250)
		if L == 2 {
			features, dom = 30+rng.Intn(30), 2+rng.Intn(3)
		}
		featOf := make([]int, features*dom)
		for c := range featOf {
			featOf[c] = c / dom
		}
		frontier := randomFrontier(rng, featOf, dom, L, size)
		if L == 2 {
			frontier = randomFrontier(rng, featOf, dom, L, len(featOf))
		}
		for ci, base := range configs {
			cfg := base
			cfg.K, cfg.Sigma, cfg.Alpha = 4, 5+rng.Intn(40), 0.8+0.19*rng.Float64()
			cfg = cfg.WithDefaults(n)
			prev := frontier
			if cfg.DisableDedup && L > 2 {
				prev = withDuplicates(rng, frontier)
			}
			st := &state{cfg: cfg, sc: newScorer(n, e, cfg.Alpha, cfg.Sigma), featOf: featOf}
			check(trial, ci, st, prev, L, rng.Float64())
		}
	}

	// The adversarial frontier: the union {0, 1, 2} of three features. Its
	// prefix pair {0, 1} and {0, 2} has the parent's statistics of a draw,
	// {1, 2} the child's, whose bound lies above the parent's by rounding.
	// At sc_k = the parent's bound, the prefix pair fails the score bound
	// while the bound over all three parents passes by less than the margin.
	sc, parent, child := roundingInversion(rand.New(rand.NewSource(29)))
	ubP, ubC := sc.upperBound(parent[0], parent[1], parent[2]), sc.upperBound(child[0], child[1], child[2])
	if d := sc.boundMargin(parent[2]); !(ubC > ubP && ubC-ubP < d) {
		t.Fatalf("adversarial draw: child bound %v, parent bound %v, margin %g", ubC, ubP, d)
	}
	adversarial := &level{cols: [][]int{{0, 1}, {0, 2}, {1, 2}}}
	for _, stats := range [][3]float64{parent, parent, child} {
		adversarial.ss = append(adversarial.ss, stats[0])
		adversarial.se = append(adversarial.se, stats[1])
		adversarial.sm = append(adversarial.sm, stats[2])
	}
	for ci, base := range configs {
		cfg := base
		cfg.K, cfg.Sigma, cfg.Alpha = 4, int(sc.sigma), sc.alpha
		st := &state{cfg: cfg.WithDefaults(int(sc.n)), sc: sc, featOf: []int{0, 1, 2}}
		pr := check(16, ci, st, adversarial, 3, ubP)
		if !cfg.DisableDedup && !cfg.DisableScorePruning && pr.dead != 1 {
			t.Fatalf("adversarial frontier, config %d: prune counts %+v, want the union dead", ci, pr)
		}
	}

	// Input filtering keeps only slices of size >= σ when size pruning is
	// on, so neither size rule can fire (checked above); the others must,
	// and the score filter must drop parents.
	if levels < 40 || maxShards < 5 || fired.pairScore == 0 || fired.dead == 0 || fired.parents == 0 || fired.dropped == 0 {
		t.Fatalf("fixture too thin: %d levels >= 3 with candidates, at most %d shards, rules fired %+v",
			levels, maxShards, fired)
	}
}

// BenchmarkPairCandidates times candidate generation alone, from the
// frontier a real run joins: Covtype's 10,000-row level 2 joined to level 3,
// where the join forms about 109k candidates, and Adult's level 3 at K 8,
// α 0.99 joined to level 4, a deep configuration that prunes weakly.
// ns/candidate divides the time by the surviving candidates, which do not
// depend on how the join finds them.
func BenchmarkPairCandidates(b *testing.B) {
	cases := []struct {
		name, dataset string
		rows          int
		cfg           Config
		L             int
	}{
		{"covtype-10k-L3", "covtype", 10_000, Config{}, 3},
		{"adult-k8-a0.99-L4", "adult", 0, Config{K: 8, Alpha: 0.99}, 4},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			st, prev, sck := joinFrontier(b, c.dataset, c.rows, c.cfg, c.L)
			var cand *level
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cand, _ = st.pairCandidates(prev, c.L, sck)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(max(cand.size(), 1)), "ns/candidate")
		})
	}
}

// joinFrontier runs SliceLine on a synthetic dataset (seed 1) through level
// L-1 and returns what its join to level L starts from: the run's state,
// the level-(L-1) frontier and sc_k, read back from the run's checkpoint.
func joinFrontier(b *testing.B, dataset string, rows int, cfg Config, L int) (*state, *level, float64) {
	b.Helper()
	g, err := datagen.ByName(dataset, rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := frame.OneHot(g.DS)
	if err != nil {
		b.Fatal(err)
	}
	n := enc.X.Rows()
	cfg.MaxLevel, cfg.CheckpointPath = L-1, filepath.Join(b.TempDir(), "ck.gob")
	if _, err := Run(context.Background(), enc, g.DS.Features, g.Err, nil, cfg); err != nil {
		b.Fatal(err)
	}
	cfg = cfg.WithDefaults(n)
	ck := &checkpointer{path: cfg.CheckpointPath, sig: Signature(enc, g.Err, nil, cfg)}
	tk, prev := newTopK(cfg.K, float64(cfg.Sigma)), &level{}
	if lvl, err := ck.load(tk, prev, &Result{}); err != nil || lvl != L-1 {
		b.Fatalf("checkpoint at level %d (%v), want level %d", lvl, err, L-1)
	}
	// The frontier's columns index cI, the basic slices that pass σ and
	// se > 0.
	ss0, se0, sm0 := make([]float64, enc.Width()), make([]float64, enc.Width()), make([]float64, enc.Width())
	basicRowPass(enc.X, g.Err, nil, ss0, se0, sm0)
	var featOf []int
	for j := range ss0 {
		if ss0[j] >= float64(cfg.Sigma) && se0[j] > 0 {
			featOf = append(featOf, enc.FeatureOf(j))
		}
	}
	return &state{cfg: cfg, sc: newScorer(n, g.Err, cfg.Alpha, cfg.Sigma), featOf: featOf}, prev, tk.threshold()
}
