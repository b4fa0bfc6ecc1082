package baseline

import (
	"fmt"
	"sort"

	"sliceline/internal/frame"
)

// The decision-tree slicer is the second approach of the SliceFinder paper:
// train a regression tree ON THE ERROR VECTOR so that leaves partition the
// data into non-overlapping regions of homogeneous model error; the worst
// leaves are the problematic "slices". Unlike SliceLine's lattice, the
// slices cannot overlap and greedy splitting offers no optimality guarantee
// — the trade-off the paper's introduction discusses.

// TreeConfig controls error-tree induction.
type TreeConfig struct {
	MaxDepth int // <= 0 defaults to 4
	MinLeaf  int // minimum rows per leaf; <= 0 defaults to max(32, n/100)
}

// Tree is a binary regression tree over equality splits F_j = v.
type Tree struct {
	root   *node
	ds     *frame.Dataset
	leaves []Leaf
}

// Leaf is one region of the partition with its error statistics.
type Leaf struct {
	Predicates []Predicate // equality path constraints (F_j = v or implicit ¬)
	Path       string      // human-readable path including negations
	Size       int
	MeanError  float64
}

type node struct {
	feature  int
	value    int
	left     *node // rows with F_feature == value
	right    *node // the rest
	leafID   int   // index into leaves for terminal nodes, else -1
	mean     float64
	count    int
	depth    int
	pathDesc string
	eqPath   []Predicate
}

// TrainErrorTree fits a greedy variance-reducing regression tree to the
// error vector. Splits test a single feature-value equality, so each left
// branch deepens a conjunction of equality predicates — the slice vocabulary
// shared with SliceLine.
func TrainErrorTree(ds *frame.Dataset, e []float64, cfg TreeConfig) (*Tree, error) {
	n := ds.NumRows()
	if len(e) != n {
		return nil, fmt.Errorf("baseline: error vector length %d vs %d rows", len(e), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("baseline: empty dataset")
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = (n + 99) / 100
		if cfg.MinLeaf < 32 {
			cfg.MinLeaf = 32
		}
	}
	t := &Tree{ds: ds}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	t.root = t.grow(rows, e, 0, cfg, "", nil)
	sort.Slice(t.leaves, func(i, j int) bool { return t.leaves[i].MeanError > t.leaves[j].MeanError })
	return t, nil
}

func (t *Tree) grow(rows []int, e []float64, depth int, cfg TreeConfig, pathDesc string, eqPath []Predicate) *node {
	sum, sq := 0.0, 0.0
	for _, i := range rows {
		sum += e[i]
		sq += e[i] * e[i]
	}
	cnt := len(rows)
	mean := sum / float64(cnt)
	nd := &node{leafID: -1, mean: mean, count: cnt, depth: depth, pathDesc: pathDesc, eqPath: eqPath}

	makeLeaf := func() *node {
		nd.leafID = len(t.leaves)
		t.leaves = append(t.leaves, Leaf{
			Predicates: append([]Predicate(nil), eqPath...),
			Path:       pathDesc,
			Size:       cnt,
			MeanError:  mean,
		})
		return nd
	}
	if depth >= cfg.MaxDepth || cnt < 2*cfg.MinLeaf {
		return makeLeaf()
	}

	// Greedy best equality split by weighted variance (equivalently, SSE)
	// reduction.
	parentSSE := sq - sum*mean
	bestGain := 0.0
	bestFeat, bestVal := -1, 0
	for f := 0; f < t.ds.NumFeatures(); f++ {
		// Per-value sums within this node.
		dom := t.ds.Features[f].Domain
		vSum := make([]float64, dom+1)
		vSq := make([]float64, dom+1)
		vCnt := make([]int, dom+1)
		for _, i := range rows {
			v := t.ds.X0.At(i, f)
			vSum[v] += e[i]
			vSq[v] += e[i] * e[i]
			vCnt[v]++
		}
		for v := 1; v <= dom; v++ {
			nl := vCnt[v]
			nr := cnt - nl
			if nl < cfg.MinLeaf || nr < cfg.MinLeaf {
				continue
			}
			lm := vSum[v] / float64(nl)
			rm := (sum - vSum[v]) / float64(nr)
			lSSE := vSq[v] - vSum[v]*lm
			rSSE := (sq - vSq[v]) - (sum-vSum[v])*rm
			gain := parentSSE - lSSE - rSSE
			if gain > bestGain {
				bestGain = gain
				bestFeat, bestVal = f, v
			}
		}
	}
	if bestFeat < 0 || bestGain <= 1e-12 {
		return makeLeaf()
	}

	var lRows, rRows []int
	for _, i := range rows {
		if t.ds.X0.At(i, bestFeat) == bestVal {
			lRows = append(lRows, i)
		} else {
			rRows = append(rRows, i)
		}
	}
	name := t.ds.Features[bestFeat].Name
	nd.feature = bestFeat
	nd.value = bestVal
	lDesc := joinPath(pathDesc, fmt.Sprintf("%s=%d", name, bestVal))
	rDesc := joinPath(pathDesc, fmt.Sprintf("%s!=%d", name, bestVal))
	lPath := append(append([]Predicate(nil), eqPath...), Predicate{Feature: bestFeat, Name: name, Value: bestVal})
	nd.left = t.grow(lRows, e, depth+1, cfg, lDesc, lPath)
	nd.right = t.grow(rRows, e, depth+1, cfg, rDesc, eqPath)
	return nd
}

func joinPath(base, pred string) string {
	if base == "" {
		return pred
	}
	return base + " AND " + pred
}

// Leaves returns all leaves ordered by decreasing mean error — the
// non-overlapping problematic regions.
func (t *Tree) Leaves() []Leaf { return t.leaves }

// WorstLeaves returns the k leaves with the highest mean error.
func (t *Tree) WorstLeaves(k int) []Leaf {
	if k > len(t.leaves) {
		k = len(t.leaves)
	}
	return t.leaves[:k]
}

// Depth returns the maximum depth of the tree.
func (t *Tree) Depth() int {
	var d func(n *node) int
	d = func(n *node) int {
		if n == nil || n.leafID >= 0 {
			if n == nil {
				return 0
			}
			return n.depth
		}
		l, r := d(n.left), d(n.right)
		if l > r {
			return l
		}
		return r
	}
	return d(t.root)
}
