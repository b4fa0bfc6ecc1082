package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"sliceline/internal/core"
	"sliceline/internal/membership"
)

// This file pins the service's JSON wire types. Job results reuse the
// versioned interchange form of internal/core/json.go; everything here is
// the thin envelope around it (dataset descriptors, job specs, statuses).

// Evaluator selector values accepted in a JobSpec.
const (
	// EvalAuto picks distributed evaluation when the server was started
	// with workers, local fused evaluation otherwise.
	EvalAuto = ""
	// EvalLocal forces in-process fused evaluation.
	EvalLocal = "local"
	// EvalDist forces distributed evaluation; submitting it to a server
	// without configured workers is a validation error.
	EvalDist = "dist"
)

// maxJobSpecBytes bounds the POST /v1/jobs body. Specs are a dataset
// reference plus a handful of scalars; anything bigger is malformed.
const maxJobSpecBytes = 1 << 20

// JobConfig is the user-settable subset of core.Config carried in a job
// spec. Zero values select the library defaults, exactly like core.Config.
type JobConfig struct {
	K                     int     `json:"k,omitempty"`
	Sigma                 int     `json:"sigma,omitempty"`
	Alpha                 float64 `json:"alpha,omitempty"`
	MaxLevel              int     `json:"max_level,omitempty"`
	MaxCandidatesPerLevel int     `json:"max_candidates_per_level,omitempty"`
	// Significance is the Benjamini-Hochberg FDR level behind each result
	// slice's "significant" marker; 0 selects the library default (0.05).
	// Must be in [0, 1).
	Significance float64 `json:"significance,omitempty"`
}

// ToCore converts the wire config into a core.Config (hooks unset).
func (jc JobConfig) ToCore() core.Config {
	return core.Config{
		K:                     jc.K,
		Sigma:                 jc.Sigma,
		Alpha:                 jc.Alpha,
		MaxLevel:              jc.MaxLevel,
		MaxCandidatesPerLevel: jc.MaxCandidatesPerLevel,
		Significance:          jc.Significance,
	}
}

// Job modes accepted in a JobSpec.
const (
	// ModeBatch is the classic one-shot run (the zero value).
	ModeBatch = ""
	// ModeMonitor keeps the job resident: it recomputes the top-K after
	// every dataset append and re-emits it over the job's SSE stream as a
	// "result" event, until cancelled.
	ModeMonitor = "monitor"
	// ModeAnytime is a budget-bounded one-shot run: enumeration stops once
	// budget_ms has elapsed (at a lattice-level boundary) and the result
	// carries the certified optimality gap. Progress streams over the job's
	// SSE channel as "snapshot" events after every completed level.
	ModeAnytime = "anytime"
	// ModeWindowed restricts the run to recent rows via the window spec —
	// the explicit spelling of the legacy "window without mode" form, which
	// remains accepted for spec_version 1 clients.
	ModeWindowed = "windowed"
	// ModeDiff compares two error vectors over the same rows: the job's
	// dataset supplies the new model's errors and baseline references a
	// second registered dataset (same rows, same features) supplying the
	// baseline errors. The result interleaves regression (diff_sign +1) and
	// improvement (-1) slices. Diff jobs evaluate locally.
	ModeDiff = "diff"
)

// SpecVersion is the current job-spec wire version. Version 0 (the field
// absent) is the pre-streaming spec; version 1 adds mode and window;
// version 2 adds the anytime/windowed/diff modes with budget_ms and
// baseline. Journaled version-0/1 specs decode and replay unchanged.
const SpecVersion = 2

// WindowSpec restricts a job to recent rows: the slice statistics are
// computed as a weighted run with rows outside the window down-weighted to
// zero, so "worst slices over the last N rows / last W duration". When both
// bounds are set, a row must satisfy both. Duration windows resolve at
// append-batch granularity: a batch is inside the window iff its arrival time
// is (base rows carry the registration time).
type WindowSpec struct {
	// LastRows keeps only the most recent n rows.
	LastRows int `json:"last_rows,omitempty"`
	// LastMS keeps only rows that arrived within the last d milliseconds.
	LastMS int64 `json:"last_ms,omitempty"`
}

// JobSpec is the request body of POST /v1/jobs.
type JobSpec struct {
	// SpecVersion is the wire version of this spec: 0 (legacy, field
	// absent) or 1. Specs using Mode or Window must be version 1.
	SpecVersion int `json:"spec_version,omitempty"`
	// Dataset references a registered dataset by id (POST /v1/datasets).
	Dataset string `json:"dataset"`
	// Config holds the SliceLine parameters for this job.
	Config JobConfig `json:"config"`
	// Evaluator selects where candidates are evaluated: "" (auto),
	// "local", or "dist".
	Evaluator string `json:"evaluator,omitempty"`
	// TimeoutMS, when > 0, bounds the job's wall-clock execution; an
	// exceeded deadline fails the job. 0 inherits the server default.
	// Ignored for monitor jobs, which are resident until cancelled.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Mode selects the job's workload: "" (one-shot batch), "anytime",
	// "monitor", "windowed", or "diff".
	Mode string `json:"mode,omitempty"`
	// Window, when set, restricts the run to recent rows (windowed slices).
	// Required for mode "windowed"; also accepted with mode "" for
	// spec_version 1 compatibility.
	Window *WindowSpec `json:"window,omitempty"`
	// BudgetMS is the anytime enumeration budget in milliseconds; required
	// (> 0) for mode "anytime", rejected elsewhere.
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// Baseline references the registered dataset holding the baseline
	// model's error vector for mode "diff"; required there, rejected
	// elsewhere. It must have the same row count as the job's dataset.
	Baseline string `json:"baseline,omitempty"`
}

// ErrBadJobSpec wraps every job-spec validation failure, matchable with
// errors.Is.
var ErrBadJobSpec = errors.New("invalid job spec")

// DecodeJobSpec strictly decodes and validates a job spec: unknown fields,
// trailing garbage, out-of-range scalars and unknown evaluator selectors are
// all rejected up front, so a job that is admitted never fails on a
// malformed request. It is the surface the fuzz target drives.
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r, maxJobSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("%w: %v", ErrBadJobSpec, err)
	}
	// A second Decode must hit EOF: reject trailing documents.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return spec, fmt.Errorf("%w: trailing data after job spec", ErrBadJobSpec)
	}
	return spec, spec.validate()
}

func (s JobSpec) validate() error {
	if s.SpecVersion < 0 || s.SpecVersion > SpecVersion {
		return fmt.Errorf("%w: spec_version %d not supported (this build speaks 0..%d)", ErrBadJobSpec, s.SpecVersion, SpecVersion)
	}
	if s.Dataset == "" {
		return fmt.Errorf("%w: missing dataset reference", ErrBadJobSpec)
	}
	switch s.Evaluator {
	case EvalAuto, EvalLocal, EvalDist:
	default:
		return fmt.Errorf("%w: unknown evaluator %q (want \"\", %q or %q)", ErrBadJobSpec, s.Evaluator, EvalLocal, EvalDist)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("%w: negative timeout_ms %d", ErrBadJobSpec, s.TimeoutMS)
	}
	switch s.Mode {
	case ModeBatch:
	case ModeMonitor:
		if s.SpecVersion < 1 {
			return fmt.Errorf("%w: mode %q requires spec_version 1", ErrBadJobSpec, s.Mode)
		}
		if s.Evaluator == EvalDist {
			return fmt.Errorf("%w: monitor jobs evaluate locally (incremental maintenance), not %q", ErrBadJobSpec, EvalDist)
		}
		if s.Window != nil {
			return fmt.Errorf("%w: monitor jobs track the full dataset; window is not supported", ErrBadJobSpec)
		}
	case ModeAnytime:
		if s.SpecVersion < 2 {
			return fmt.Errorf("%w: mode %q requires spec_version 2", ErrBadJobSpec, s.Mode)
		}
		if s.BudgetMS <= 0 {
			return fmt.Errorf("%w: mode %q requires budget_ms > 0", ErrBadJobSpec, s.Mode)
		}
		if s.Window != nil {
			return fmt.Errorf("%w: anytime jobs run over the full dataset; window is not supported", ErrBadJobSpec)
		}
	case ModeWindowed:
		if s.SpecVersion < 2 {
			return fmt.Errorf("%w: mode %q requires spec_version 2", ErrBadJobSpec, s.Mode)
		}
		if s.Window == nil {
			return fmt.Errorf("%w: mode %q requires a window", ErrBadJobSpec, s.Mode)
		}
	case ModeDiff:
		if s.SpecVersion < 2 {
			return fmt.Errorf("%w: mode %q requires spec_version 2", ErrBadJobSpec, s.Mode)
		}
		if s.Baseline == "" {
			return fmt.Errorf("%w: mode %q requires a baseline dataset reference", ErrBadJobSpec, s.Mode)
		}
		if s.Evaluator == EvalDist {
			return fmt.Errorf("%w: diff jobs evaluate locally (weighted lowering), not %q", ErrBadJobSpec, EvalDist)
		}
		if s.Window != nil {
			return fmt.Errorf("%w: diff jobs run over the full dataset; window is not supported", ErrBadJobSpec)
		}
	default:
		return fmt.Errorf("%w: unknown mode %q (want \"\", %q, %q, %q or %q)", ErrBadJobSpec, s.Mode, ModeAnytime, ModeMonitor, ModeWindowed, ModeDiff)
	}
	if s.BudgetMS < 0 {
		return fmt.Errorf("%w: negative budget_ms %d", ErrBadJobSpec, s.BudgetMS)
	}
	if s.BudgetMS > 0 && s.Mode != ModeAnytime {
		return fmt.Errorf("%w: budget_ms is only valid with mode %q", ErrBadJobSpec, ModeAnytime)
	}
	if s.Baseline != "" && s.Mode != ModeDiff {
		return fmt.Errorf("%w: baseline is only valid with mode %q", ErrBadJobSpec, ModeDiff)
	}
	if w := s.Window; w != nil {
		if s.SpecVersion < 1 {
			return fmt.Errorf("%w: window requires spec_version 1", ErrBadJobSpec)
		}
		if w.LastRows < 0 || w.LastMS < 0 {
			return fmt.Errorf("%w: negative window bounds", ErrBadJobSpec)
		}
		if w.LastRows == 0 && w.LastMS == 0 {
			return fmt.Errorf("%w: empty window (set last_rows and/or last_ms)", ErrBadJobSpec)
		}
		if s.Evaluator == EvalDist {
			return fmt.Errorf("%w: windowed jobs evaluate locally (row weights), not %q", ErrBadJobSpec, EvalDist)
		}
	}
	if err := s.Config.ToCore().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadJobSpec, err)
	}
	return nil
}

// DatasetInfo describes a registered dataset (responses of the /v1/datasets
// endpoints).
type DatasetInfo struct {
	ID          string `json:"id"`
	Name        string `json:"name"`
	Rows        int    `json:"rows"`
	Features    int    `json:"features"`
	OneHotWidth int    `json:"onehot_width"`
	Signature   string `json:"signature"` // hex FNV data signature of the current generation
	// Generation counts applied appends; 0 is the registered base.
	Generation int `json:"generation"`
	// Appendable reports that the dataset accepts POST /v1/datasets/{id}/rows
	// (registered in err-column mode).
	Appendable bool `json:"appendable,omitempty"`
	// Reused reports that the upload matched an already-registered
	// dataset byte for byte and no new entry was created.
	Reused bool `json:"reused,omitempty"`
}

// JobInfo describes a job (responses of the /v1/jobs endpoints). Result is
// the versioned core result document, present once the job is done — or, for
// a running monitor job, the latest refreshed result (Generation says which
// dataset generation it covers).
type JobInfo struct {
	ID         string          `json:"id"`
	Dataset    string          `json:"dataset"`
	Status     string          `json:"status"`
	Mode       string          `json:"mode,omitempty"`
	Cached     bool            `json:"cached,omitempty"`
	Error      string          `json:"error,omitempty"`
	Evaluator  string          `json:"evaluator,omitempty"`
	Generation int             `json:"generation,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Healthz is the response of GET /v1/healthz.
type Healthz struct {
	Status    string         `json:"status"`
	Version   string         `json:"version"`
	Datasets  int            `json:"datasets"`
	Jobs      map[string]int `json:"jobs"`
	QueueLen  int            `json:"queue_len"`
	QueueCap  int            `json:"queue_cap"`
	Inflight  int            `json:"inflight"`
	PoolSize  int            `json:"pool_size"`
	Journal   bool           `json:"journal"`
	DistAddrs []string       `json:"dist_workers,omitempty"`
	Elastic   bool           `json:"elastic,omitempty"` // membership-driven fleet configured
}

// ClusterInfo is the response of GET /v1/cluster: the membership view the
// server's elastic jobs place partitions against. The shape matches the
// worker-facing GET /v1/cluster of internal/membership's Handler.
type ClusterInfo struct {
	Version uint64                    `json:"version"`
	Members []membership.MemberStatus `json:"members"`
}

// AppendInfo is the response of POST /v1/datasets/{id}/rows.
type AppendInfo struct {
	ID         string   `json:"id"`
	Generation int      `json:"generation"`
	Rows       int      `json:"rows"`     // accumulated row count after the append
	NewRows    int      `json:"new_rows"` // rows this batch added
	Grown      []string `json:"grown,omitempty"`
	Signature  string   `json:"signature"` // hex data signature of this generation
}
