// Package core implements SliceLine's exact top-K slice-finding algorithm
// (Algorithm 1 of the paper): score-based problem formulation (Section 2),
// upper bounds and pruning (Section 3), and linear-algebra level-wise
// enumeration with vectorized slice evaluation (Section 4). All candidate
// generation and evaluation is expressed over the sparse one-hot matrices of
// package frame using the kernels of package matrix.
package core

import (
	"fmt"
	"time"

	"sliceline/internal/obs"
)

// Default parameter values from the paper (Algorithm 1 header and §5.2).
const (
	DefaultK         = 4
	DefaultAlpha     = 0.95
	DefaultBlockSize = 16
	minSupportFloor  = 32
)

// DefaultSignificance is the FDR level used to set Slice.Significant when
// Config.Significance is zero — 0.05, the SliceFinder paper's default.
const DefaultSignificance = 0.05

// Config holds the SliceLine parameters and the ablation switches used by
// the pruning study (Figure 3).
type Config struct {
	// K is the number of top slices to return. <= 0 defaults to 4.
	K int
	// Sigma is the minimum support |S| >= sigma. <= 0 defaults to
	// max(32, ceil(n/100)), the paper's default.
	Sigma int
	// Alpha in (0,1] weights average slice error against slice size.
	// <= 0 defaults to 0.95, the paper's experimental default.
	Alpha float64
	// MaxLevel caps the lattice level (the paper's ⌈L⌉). <= 0 means
	// unbounded, i.e. min(m, ...) terminates the loop.
	MaxLevel int

	// Ablation switches (Figure 3). The zero value enables everything.
	DisableSizePruning    bool // drop ⌈ss⌉ >= σ candidate pruning and σ input filtering
	DisableScorePruning   bool // drop ⌈sc⌉ > sc_k and ⌈sc⌉ >= 0 pruning
	DisableParentHandling bool // drop the np == L missing-parent pruning
	DisableDedup          bool // keep duplicate pair-candidates (config 5)

	// MaxCandidatesPerLevel aborts enumeration when a level would evaluate
	// more candidates than this bound, instead of exhausting memory — the
	// paper's unpruned configs "ran out-of-memory after 4 levels". The join
	// counts the candidates it forms before pruning them; the unions of a
	// slice whose own score bound cannot beat sc_k are never formed and do
	// not count. <= 0 defaults to 2 million.
	MaxCandidatesPerLevel int

	// Budget, when positive, bounds the enumeration wall clock: the run
	// stops before starting any lattice level once Budget has elapsed
	// (anytime mode). Levels are never interrupted mid-evaluation, so a
	// budget-stopped run is bit-identical — including Result.Gap — to a
	// batch run with MaxLevel set to its last completed level. Combine with
	// OnSnapshot to stream monotonically-improving top-K prefixes.
	Budget time.Duration

	// Significance is the false-discovery-rate level used to set
	// Slice.Significant from the Benjamini–Hochberg q-values annotated on
	// every result slice. Zero selects DefaultSignificance (0.05); values
	// must otherwise lie in (0, 1).
	Significance float64

	// OnSnapshot, when non-nil, is invoked after every completed lattice
	// level with the current decoded top-K and the certified optimality gap
	// at that point. It runs synchronously on the enumeration goroutine.
	// On a resumed run it fires only for newly enumerated levels.
	OnSnapshot func(Snapshot)

	// Evaluator, when non-nil, delegates slice evaluation — for example to
	// the distributed backends of package dist. The enumeration, pruning
	// and top-K logic stay on the driver.
	Evaluator ExternalEvaluator

	// OnLevel, when non-nil, is invoked after each lattice level completes
	// with that level's statistics — progress reporting for long
	// enumerations. It runs synchronously on the enumeration goroutine.
	// On a resumed run it fires only for newly enumerated levels.
	OnLevel func(LevelStats)

	// CheckpointPath, when non-empty, persists the enumeration state (top-K,
	// candidate frontier, level counters) to this file after every completed
	// lattice level, atomically. An interrupted run restarted with Resume
	// continues from the last completed level and produces byte-identical
	// top-K to an uninterrupted run.
	CheckpointPath string

	// Resume restores state from CheckpointPath before enumerating. A
	// missing checkpoint file starts a fresh run; a checkpoint written for
	// different data or an incompatible configuration is refused with an
	// error rather than silently producing garbage.
	Resume bool

	// Tracer, when non-nil, receives spans for the run, every lattice level,
	// every candidate-evaluation call and every checkpoint operation. The
	// run span is also placed into the context handed to external
	// evaluators, so distributed backends parent their per-RPC spans under
	// the enumeration that issued them. Nil disables tracing at zero cost.
	Tracer obs.Tracer

	// Metrics, when non-nil, receives enumeration counters, the live top-K
	// threshold gauge, and per-level / per-eval latency histograms
	// (sl_core_* families). Nil disables metrics at zero cost.
	Metrics *obs.Registry
}

// WithDefaults resolves the zero-value fields to their defaults for a
// dataset of n (weighted) rows, the resolution Run applies internally. It is
// exported for callers that need the resolved parameters ahead of a run —
// notably ConfigSignature consumers like the server's result cache, where an
// explicit K=4 and a defaulted K must key identically. Applying it twice is
// a no-op.
func (c Config) WithDefaults(n int) Config {
	if c.K <= 0 {
		c.K = DefaultK
	}
	if c.Sigma <= 0 {
		c.Sigma = (n + 99) / 100
		if c.Sigma < minSupportFloor {
			c.Sigma = minSupportFloor
		}
	}
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Alpha > 1 {
		c.Alpha = 1
	}
	if c.MaxCandidatesPerLevel <= 0 {
		c.MaxCandidatesPerLevel = 2_000_000
	}
	return c
}

// Predicate is one equivalence predicate F_j = v of a slice.
type Predicate struct {
	Feature int    // original feature index (0-based)
	Name    string // feature name
	Value   int    // 1-based integer code
	Label   string // decoded category/bin label when available
}

func (p Predicate) String() string {
	if p.Label != "" {
		return fmt.Sprintf("%s=%s", p.Name, p.Label)
	}
	return fmt.Sprintf("%s=%d", p.Name, p.Value)
}

// Slice is one result slice with its statistics (the paper's TS/TR rows)
// plus the statistical guardrail annotations of the SliceFinder comparison:
// a one-sided Welch's t-test of the slice's error against the rest of the
// data, with Benjamini–Hochberg correction over the result's top-K family.
type Slice struct {
	Predicates []Predicate
	Score      float64
	Size       int     // |S|
	TotalError float64 // se
	MaxError   float64 // sm
	AvgError   float64 // se / |S|

	// PValue is the one-sided Welch's t-test p-value for "this slice's mean
	// error exceeds the rest of the data's", computed from the run's
	// accumulators (weighted mean/variance/count summaries) — no second
	// enumeration pass.
	PValue float64
	// QValue is the Benjamini–Hochberg FDR q-value of PValue over the
	// result's top-K family (per diff direction in RunDiff results).
	QValue float64
	// Significant reports QValue <= the run's significance level
	// (Config.Significance, default 0.05). Tiny-but-extreme slices that a
	// high score surfaces but the data cannot statistically support show up
	// with Significant == false.
	Significant bool
	// DiffSign is 0 for ordinary runs; in RunDiff results it is +1 for
	// slices found on the regression direction (new model worse) and -1 for
	// the improvement direction (new model better).
	DiffSign int
}

func (s Slice) String() string {
	out := ""
	for i, p := range s.Predicates {
		if i > 0 {
			out += " AND "
		}
		out += p.String()
	}
	return fmt.Sprintf("[%s] score=%.4f size=%d avgErr=%.4f", out, s.Score, s.Size, s.AvgError)
}

// Snapshot is one anytime-mode progress point, delivered via
// Config.OnSnapshot after each completed lattice level: the current decoded
// and annotated top-K together with the optimality gap certified at that
// point. Across the snapshots of one run the top-K only improves and Gap is
// monotonically non-increasing.
type Snapshot struct {
	Level   int     // last completed lattice level
	TopK    []Slice // current best K, decoded and annotated
	Gap     float64 // certified optimality gap at this point
	Elapsed time.Duration
}

// LevelStats records the enumeration characteristics of one lattice level,
// the quantities plotted in Figures 3/4 and Table 2.
type LevelStats struct {
	Level      int
	Candidates int           // slices evaluated at this level
	Valid      int           // evaluated slices with |S| >= sigma and se > 0
	Pruned     int           // candidates the join formed and pruned before evaluation
	Elapsed    time.Duration // cumulative elapsed time through this level
}

// Result is the output of a SliceLine run.
type Result struct {
	TopK      []Slice
	Levels    []LevelStats
	N         int     // dataset rows
	AvgError  float64 // ē
	Sigma     int
	Alpha     float64
	Elapsed   time.Duration
	Truncated bool // true if MaxCandidatesPerLevel aborted enumeration

	// Gap is the certified optimality gap: no slice outside the explored
	// part of the lattice can score more than the K-th best score plus Gap.
	// It is derived from the same Equation-3 score upper bounds that drive
	// pruning, evaluated over the surviving frontier of the last completed
	// level. Zero means the top-K is exact (the usual case for a run that
	// exhausted the lattice); a budget- or MaxLevel-bounded run reports the
	// bound it can still certify ("top-K within ε").
	Gap float64
}

// TotalCandidates sums evaluated candidates over all levels.
func (r *Result) TotalCandidates() int {
	total := 0
	for _, l := range r.Levels {
		total += l.Candidates
	}
	return total
}

// TS returns the top-K slices in the paper's output format: a K×m
// integer-encoded matrix with one row per slice where zeros mark free
// features and non-zero entries are the 1-based value codes. m is the
// original feature count.
func (r *Result) TS(m int) [][]int {
	out := make([][]int, len(r.TopK))
	for i, s := range r.TopK {
		row := make([]int, m)
		for _, p := range s.Predicates {
			if p.Feature >= 0 && p.Feature < m {
				row[p.Feature] = p.Value
			}
		}
		out[i] = row
	}
	return out
}

// TR returns the aligned slice statistics in the paper's column order:
// score, total error, max error, size — one row per top-K slice.
func (r *Result) TR() [][4]float64 {
	out := make([][4]float64, len(r.TopK))
	for i, s := range r.TopK {
		out[i] = [4]float64{s.Score, s.TotalError, s.MaxError, float64(s.Size)}
	}
	return out
}
