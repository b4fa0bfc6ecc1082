package sliceline

import (
	"context"
	"fmt"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/frame"
	"sliceline/internal/obs"
)

// Context-first API. RunContext and RunDiffContext are the only entry
// points: each takes a context for cancellation and deadline propagation
// (honored between lattice levels and inside external evaluators) and
// accepts functional options layered over the Config struct, including
// WithWeights for row weights.

// runSettings collects everything an invocation needs beyond the dataset and
// error vector: the configuration plus per-call inputs (row weights).
type runSettings struct {
	cfg     Config
	weights []float64
}

// Option adjusts one run's settings. Options are applied in order after the
// Config struct fields, so an option wins over the corresponding field when
// both are set.
type Option func(*runSettings)

// WithWeights attaches per-row weights to the run: row i counts as w[i]
// identical rows in every size and error aggregate, so deduplicated datasets
// with multiplicities produce exactly the same top-K as their expanded form.
// Zero weights exclude rows entirely (the mechanism behind windowed runs);
// the total weight must be positive. Weights cannot be combined with
// WithEvaluator.
func WithWeights(w []float64) Option {
	return func(rs *runSettings) { rs.weights = w }
}

// WithBudget bounds the enumeration wall clock (anytime mode): the run stops
// before starting any lattice level once d has elapsed and reports the
// optimality gap it can still certify in Result.Gap. Combine with
// WithOnSnapshot to stream the improving top-K. Zero or negative d disables
// the budget.
func WithBudget(d time.Duration) Option {
	return func(rs *runSettings) {
		if d < 0 {
			d = 0
		}
		rs.cfg.Budget = d
	}
}

// WithSignificance sets the false-discovery-rate level in (0, 1) used to
// mark result slices Significant from their Benjamini–Hochberg q-values.
// The default is 0.05.
func WithSignificance(level float64) Option {
	return func(rs *runSettings) { rs.cfg.Significance = level }
}

// WithOnSnapshot registers an anytime progress callback, invoked after every
// completed lattice level with the current decoded top-K and certified
// optimality gap. It runs synchronously on the enumeration goroutine.
func WithOnSnapshot(fn func(Snapshot)) Option {
	return func(rs *runSettings) { rs.cfg.OnSnapshot = fn }
}

// WithEvaluator delegates slice evaluation, e.g. to a distributed cluster.
func WithEvaluator(e ExternalEvaluator) Option {
	return func(rs *runSettings) { rs.cfg.Evaluator = e }
}

// WithTracer streams spans for the run, every lattice level, every
// evaluation call, and (through evaluators that support it) every worker RPC
// to t. Use NewJSONTracer to collect spans for a JSON dump.
func WithTracer(t Tracer) Option {
	return func(rs *runSettings) { rs.cfg.Tracer = t }
}

// WithMetrics records enumeration counters, gauges and latency histograms
// into m. Use NewMetrics to create a registry and its WritePrometheus /
// WriteJSON methods (or obs.Handler via the binaries) to export it.
func WithMetrics(m *Metrics) Option {
	return func(rs *runSettings) { rs.cfg.Metrics = m }
}

// WithCheckpoint persists enumeration state to path after every completed
// lattice level.
func WithCheckpoint(path string) Option {
	return func(rs *runSettings) { rs.cfg.CheckpointPath = path }
}

// WithResume persists enumeration state to path and, if the file already
// holds a compatible checkpoint, resumes from its last completed level.
func WithResume(path string) Option {
	return func(rs *runSettings) { rs.cfg.CheckpointPath = path; rs.cfg.Resume = true }
}

// WithMaxLevel caps the lattice depth.
func WithMaxLevel(l int) Option {
	return func(rs *runSettings) { rs.cfg.MaxLevel = l }
}

// WithOnLevel registers a per-level progress callback.
func WithOnLevel(fn func(LevelStats)) Option {
	return func(rs *runSettings) { rs.cfg.OnLevel = fn }
}

func applySettings(cfg Config, opts []Option) runSettings {
	rs := runSettings{cfg: cfg}
	for _, o := range opts {
		if o != nil {
			o(&rs)
		}
	}
	return rs
}

// RunContext executes the SliceLine enumeration with a caller-supplied
// context. Cancellation is honored between lattice levels and propagated
// into external evaluators, so a cancelled run aborts in-flight distributed
// work instead of waiting for the level to finish. Row weights, anytime
// budgets and every other per-run input are supplied via options.
func RunContext(ctx context.Context, ds *Dataset, e []float64, cfg Config, opts ...Option) (*Result, error) {
	rs := applySettings(cfg, opts)
	enc, err := frame.OneHot(ds)
	if err != nil {
		return nil, err
	}
	return core.Run(ctx, enc, ds.Features, e, rs.weights, rs.cfg)
}

// RunDiffContext finds the top slices of model-behavior change between two
// error vectors over the same rows — slices where the new model regressed
// (Slice.DiffSign = +1) and where it improved (DiffSign = -1) — by running
// the weighted enumeration over each rectified error delta. Each direction's
// slices are exactly what RunContext reports over max(0, ±(eNew−eBase)).
// Weights and external evaluators are not supported for diff runs, and a
// Config.CheckpointPath is refused with ErrDiffCheckpoint.
func RunDiffContext(ctx context.Context, ds *Dataset, eBase, eNew []float64, cfg Config, opts ...Option) (*Result, error) {
	rs := applySettings(cfg, opts)
	if rs.weights != nil {
		return nil, fmt.Errorf("sliceline: diff runs do not accept WithWeights: %w", ErrBadWeight)
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		return nil, err
	}
	return core.RunDiff(ctx, enc, ds.Features, eBase, eNew, rs.cfg)
}

// Observability types, re-exported so callers can implement hooks against
// the public package without importing internal paths.
type (
	// Tracer receives spans; implement it to bridge SliceLine tracing into
	// your own telemetry, or use NewJSONTracer for a collecting tracer.
	Tracer = obs.Tracer
	// Span is one timed operation with typed attributes and events. All
	// methods are no-ops on a nil *Span, so custom Tracer implementations
	// can selectively drop spans at zero cost.
	Span = obs.Span
	// JSONTracer collects finished spans in memory and dumps them as JSON.
	JSONTracer = obs.JSONTracer
	// Metrics is a registry of counters, gauges and histograms with
	// Prometheus-text and JSON exporters.
	Metrics = obs.Registry

	// ExternalEvaluator delegates candidate evaluation (see Config.Evaluator).
	ExternalEvaluator = core.ExternalEvaluator
)

// NewJSONTracer returns a collecting tracer whose WriteJSON emits the span
// dump the binaries' -trace flags produce.
func NewJSONTracer() *JSONTracer { return obs.NewJSONTracer() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewSpan constructs a started span owned by tr; custom Tracer
// implementations call it from their StartSpan method.
func NewSpan(tr Tracer, name string) *Span { return obs.NewSpan(tr, name) }

// ResultSchemaVersion is the schema_version of the JSON documents written by
// Result.MarshalJSON (and the `sliceline -json` flag).
const ResultSchemaVersion = core.ResultSchemaVersion

// Typed validation sentinels, matchable with errors.Is on any error returned
// by RunContext or RunDiffContext.
var (
	ErrBadAlpha          = core.ErrBadAlpha
	ErrEmptyDataset      = core.ErrEmptyDataset
	ErrNoFeatures        = core.ErrNoFeatures
	ErrBadErrorVector    = core.ErrBadErrorVector
	ErrBadWeight         = core.ErrBadWeight
	ErrWeightedEvaluator = core.ErrWeightedEvaluator
	ErrBadBudget         = core.ErrBadBudget
	ErrBadSignificance   = core.ErrBadSignificance
	ErrDiffCheckpoint    = core.ErrDiffCheckpoint
)
