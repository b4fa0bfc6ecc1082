package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"sliceline/internal/dist"
	"sliceline/internal/faults"
	"sliceline/internal/membership"
)

// ScenarioSchemaVersion is the scenario-file format version. Readers reject
// other versions instead of guessing.
const ScenarioSchemaVersion = 1

// ErrBadScenario wraps every scenario validation failure, matchable with
// errors.Is.
var ErrBadScenario = errors.New("sim: malformed scenario")

// Topology declares how driver↔worker latency is shaped.
//
//   - "star": every message samples one-way latency from LocalMS.
//   - "two-tier": workers sit in Racks racks (worker w in rack w mod Racks,
//     the driver in rack 0); a message to a worker outside rack 0 pays
//     LocalMS plus a CrossMS spine hop.
type Topology struct {
	Kind    string `json:"kind"`
	Racks   int    `json:"racks,omitempty"`
	LocalMS Dist   `json:"local_ms"`
	CrossMS Dist   `json:"cross_ms,omitempty"`
}

// Service declares per-call evaluation cost: one Eval on a partition of R
// rows with C candidate slices costs R·C·PerPairNS nanoseconds, scaled by
// the worker's permanent straggler multiplier (drawn once per worker with
// probability StragglerProb from StragglerMult) and a per-call transient
// multiplier (TransientMult; omitted means exactly 1).
type Service struct {
	PerPairNS     Dist    `json:"per_pair_ns"`
	TransientMult Dist    `json:"transient_mult,omitempty"`
	StragglerProb float64 `json:"straggler_prob,omitempty"`
	StragglerMult Dist    `json:"straggler_mult,omitempty"`
}

// CrashSpec takes one worker down at AtMS for DownMS (0 = forever).
type CrashSpec struct {
	Worker int     `json:"worker"`
	AtMS   float64 `json:"at_ms"`
	DownMS float64 `json:"down_ms,omitempty"`
}

// FlapSpec cycles one worker from FromMS on: up for UpMS, down for the rest
// of each PeriodMS window, forever.
type FlapSpec struct {
	Worker   int     `json:"worker"`
	FromMS   float64 `json:"from_ms,omitempty"`
	PeriodMS float64 `json:"period_ms"`
	UpMS     float64 `json:"up_ms"`
}

// SplitSpec makes one worker unreachable (packets silently dropped — calls
// time out rather than fail fast) from AtMS until AtMS+HealMS (0 = forever).
type SplitSpec struct {
	Worker int     `json:"worker"`
	AtMS   float64 `json:"at_ms"`
	HealMS float64 `json:"heal_ms,omitempty"`
}

// ScriptRule scripts one explicit per-call fault with the internal/faults
// DSL verbs: Op ∈ {load, eval, ping}, Kind ∈ {delay, hang, crash-before,
// crash-after, short-reply, corrupt-reply}. Call counts per (worker, op)
// from 0, exactly like faults.Schedule.On.
type ScriptRule struct {
	Worker  int     `json:"worker"`
	Op      string  `json:"op"`
	Call    int     `json:"call"`
	Kind    string  `json:"kind"`
	DelayMS float64 `json:"delay_ms,omitempty"`
}

// SeededSpec applies a faults.Seeded schedule (per-mille probabilities per
// call) to every worker, each with its own derived seed.
type SeededSpec struct {
	Seed                int64   `json:"seed"`
	DelayPerMille       int     `json:"delay_per_mille,omitempty"`
	HangPerMille        int     `json:"hang_per_mille,omitempty"`
	CrashBeforePerMille int     `json:"crash_before_per_mille,omitempty"`
	CrashAfterPerMille  int     `json:"crash_after_per_mille,omitempty"`
	ShortPerMille       int     `json:"short_per_mille,omitempty"`
	CorruptPerMille     int     `json:"corrupt_per_mille,omitempty"`
	MaxDelayMS          float64 `json:"max_delay_ms,omitempty"`
}

// FaultPlan is the scenario's failure script.
type FaultPlan struct {
	Crashes    []CrashSpec  `json:"crashes,omitempty"`
	Flaps      []FlapSpec   `json:"flaps,omitempty"`
	Partitions []SplitSpec  `json:"partitions,omitempty"`
	Script     []ScriptRule `json:"script,omitempty"`
	Seeded     *SeededSpec  `json:"seeded,omitempty"`
}

// MembershipPlan enables the elastic lease-membership model: workers
// announce every granted-lease/2 (the Announcer discipline), a registrar
// scan every LeaseMS strikes out silent members per membership.LeaseStep,
// and every view change rebuilds the consistent-hash ring and rebalances
// partition placement onto it (warm re-attach when the owner still holds
// the partition). The driver evaluates a partition itself once no live
// worker remains, like dist.NewElasticCluster's membership fleet.
type MembershipPlan struct {
	LeaseMS int `json:"lease_ms,omitempty"`
	Strikes int `json:"strikes,omitempty"`
}

// Grid is the knob sweep: the cross product of all axes is simulated, one
// RunResult per point, every point re-running the identical scenario seed so
// comparisons are paired. An omitted axis pins the knob to the runtime
// default (dist.Default*).
type Grid struct {
	CallTimeoutMS []int     `json:"call_timeout_ms,omitempty"`
	HedgeAfterMS  []int     `json:"hedge_after_ms,omitempty"`
	HedgeMult     []float64 `json:"hedge_mult,omitempty"`
	HeartbeatMS   []int     `json:"heartbeat_ms,omitempty"`
	Strikes       []int     `json:"strikes,omitempty"`
	// LeaseStrikes sweeps the registrar strike limit; only meaningful when
	// the scenario has a membership plan. 0 (or omitted) inherits the plan's
	// own strikes setting.
	LeaseStrikes []int `json:"lease_strikes,omitempty"`
}

// Scenario is one declarative simulator experiment.
type Scenario struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name"`
	Seed          uint64 `json:"seed"`

	Workers    int `json:"workers"`
	Partitions int `json:"partitions"`

	Rows          int     `json:"rows"`
	BytesPerRow   int     `json:"bytes_per_row"`
	BandwidthMBps float64 `json:"bandwidth_mbps"`
	Levels        []int   `json:"levels"` // candidate count per lattice level

	Topology   Topology        `json:"topology"`
	Service    Service         `json:"service"`
	Faults     *FaultPlan      `json:"faults,omitempty"`
	Membership *MembershipPlan `json:"membership,omitempty"`

	Grid Grid `json:"grid"`
}

// DecodeScenario strictly decodes one scenario document: unknown fields,
// trailing garbage, wrong schema versions, and out-of-domain parameters are
// all rejected (the benchfmt discipline), so a sweep never runs on a typo.
func DecodeScenario(r io.Reader) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return s, fmt.Errorf("%w: trailing data after document", ErrBadScenario)
	}
	return s, s.Validate()
}

// LoadScenario reads and validates the scenario file at path.
func LoadScenario(path string) (Scenario, error) {
	fh, err := os.Open(path)
	if err != nil {
		return Scenario{}, err
	}
	defer fh.Close()
	s, err := DecodeScenario(fh)
	if err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Validate checks the whole document against its domain.
func (s Scenario) Validate() error {
	bad := func(format string, args ...interface{}) error {
		return fmt.Errorf("%w: %s", ErrBadScenario, fmt.Sprintf(format, args...))
	}
	if s.SchemaVersion != ScenarioSchemaVersion {
		return bad("schema_version %d (want %d)", s.SchemaVersion, ScenarioSchemaVersion)
	}
	if s.Name == "" {
		return bad("scenario has no name")
	}
	if s.Workers < 1 || s.Workers > 10000 {
		return bad("workers %d out of range [1, 10000]", s.Workers)
	}
	if s.Partitions < 1 || s.Partitions > 100000 {
		return bad("partitions %d out of range [1, 100000]", s.Partitions)
	}
	if s.Rows < 1 {
		return bad("rows %d out of range", s.Rows)
	}
	if s.BytesPerRow < 1 {
		return bad("bytes_per_row %d out of range", s.BytesPerRow)
	}
	if s.BandwidthMBps <= 0 {
		return bad("bandwidth_mbps %v out of range", s.BandwidthMBps)
	}
	if len(s.Levels) == 0 {
		return bad("no lattice levels")
	}
	for i, c := range s.Levels {
		if c < 1 {
			return bad("level %d has %d candidates", i, c)
		}
	}
	switch s.Topology.Kind {
	case "star":
	case "two-tier":
		if s.Topology.Racks < 1 {
			return bad("two-tier topology needs racks >= 1, got %d", s.Topology.Racks)
		}
		if err := s.Topology.CrossMS.Validate(); err != nil {
			return bad("topology cross_ms: %v", err)
		}
	default:
		return bad("unknown topology kind %q", s.Topology.Kind)
	}
	if err := s.Topology.LocalMS.Validate(); err != nil {
		return bad("topology local_ms: %v", err)
	}
	if err := s.Service.PerPairNS.Validate(); err != nil {
		return bad("service per_pair_ns: %v", err)
	}
	if !s.Service.TransientMult.IsZero() {
		if err := s.Service.TransientMult.Validate(); err != nil {
			return bad("service transient_mult: %v", err)
		}
	}
	if s.Service.StragglerProb < 0 || s.Service.StragglerProb > 1 {
		return bad("service straggler_prob %v out of [0, 1]", s.Service.StragglerProb)
	}
	if s.Service.StragglerProb > 0 {
		if err := s.Service.StragglerMult.Validate(); err != nil {
			return bad("service straggler_mult: %v", err)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.validate(s.Workers); err != nil {
			return bad("faults: %v", err)
		}
	}
	if s.Membership != nil {
		if s.Membership.LeaseMS < 0 || s.Membership.Strikes < 0 {
			return bad("membership lease_ms/strikes out of range")
		}
	}
	if err := s.Grid.validate(); err != nil {
		return bad("grid: %v", err)
	}
	return nil
}

func (f *FaultPlan) validate(workers int) error {
	checkWorker := func(w int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("worker %d out of range [0, %d)", w, workers)
		}
		return nil
	}
	for _, c := range f.Crashes {
		if err := checkWorker(c.Worker); err != nil {
			return err
		}
		if c.AtMS < 0 || c.DownMS < 0 {
			return fmt.Errorf("crash times out of range")
		}
	}
	for _, fl := range f.Flaps {
		if err := checkWorker(fl.Worker); err != nil {
			return err
		}
		if fl.PeriodMS <= 0 || fl.UpMS < 0 || fl.UpMS > fl.PeriodMS || fl.FromMS < 0 {
			return fmt.Errorf("flap window out of range")
		}
	}
	for _, sp := range f.Partitions {
		if err := checkWorker(sp.Worker); err != nil {
			return err
		}
		if sp.AtMS < 0 || sp.HealMS < 0 {
			return fmt.Errorf("partition times out of range")
		}
	}
	for _, r := range f.Script {
		if err := checkWorker(r.Worker); err != nil {
			return err
		}
		if _, err := faults.ParseOp(r.Op); err != nil {
			return err
		}
		k, err := faults.ParseKind(r.Kind)
		if err != nil {
			return err
		}
		if k == faults.None {
			return fmt.Errorf("script rule with kind %q is a no-op", r.Kind)
		}
		if r.Call < 0 || r.DelayMS < 0 {
			return fmt.Errorf("script rule call/delay out of range")
		}
	}
	if s := f.Seeded; s != nil {
		for _, pm := range []int{s.DelayPerMille, s.HangPerMille, s.CrashBeforePerMille,
			s.CrashAfterPerMille, s.ShortPerMille, s.CorruptPerMille} {
			if pm < 0 || pm > 1000 {
				return fmt.Errorf("seeded per-mille %d out of [0, 1000]", pm)
			}
		}
		if s.MaxDelayMS < 0 {
			return fmt.Errorf("seeded max_delay_ms out of range")
		}
	}
	return nil
}

func (g Grid) validate() error {
	for _, v := range g.CallTimeoutMS {
		if v < 0 {
			return fmt.Errorf("call_timeout_ms %d out of range", v)
		}
	}
	for _, v := range g.HedgeAfterMS {
		if v < 0 {
			return fmt.Errorf("hedge_after_ms %d out of range", v)
		}
	}
	for _, v := range g.HedgeMult {
		if v < 0 {
			return fmt.Errorf("hedge_mult %v out of range", v)
		}
	}
	for _, v := range g.HeartbeatMS {
		if v < 0 {
			return fmt.Errorf("heartbeat_ms %d out of range", v)
		}
	}
	for _, v := range g.Strikes {
		if v < 1 {
			return fmt.Errorf("strikes %d out of range", v)
		}
	}
	for _, v := range g.LeaseStrikes {
		if v < 1 {
			return fmt.Errorf("lease_strikes %d out of range", v)
		}
	}
	return nil
}

// Knobs is one grid point: the scheduling-policy configuration of one
// simulated run, mirroring dist.Options and the CLI flags.
type Knobs struct {
	CallTimeoutMS int     `json:"call_timeout_ms"`
	HedgeAfterMS  int     `json:"hedge_after_ms"`
	HedgeMult     float64 `json:"hedge_mult"`
	HeartbeatMS   int     `json:"heartbeat_ms"`
	Strikes       int     `json:"strikes"`
	// LeaseStrikes overrides the membership plan's registrar strike limit
	// when >0 (elastic scenarios only).
	LeaseStrikes int `json:"lease_strikes,omitempty"`
}

// CallTimeout returns the per-RPC deadline (0 = none).
func (k Knobs) CallTimeout() time.Duration {
	return time.Duration(k.CallTimeoutMS) * time.Millisecond
}

// Points expands the grid into its cross product, in deterministic
// (row-major) order. Omitted axes pin the runtime defaults.
func (g Grid) Points() []Knobs {
	ct := g.CallTimeoutMS
	if len(ct) == 0 {
		ct = []int{int(dist.DefaultCallTimeout.Milliseconds())}
	}
	ha := g.HedgeAfterMS
	if len(ha) == 0 {
		ha = []int{0}
	}
	hm := g.HedgeMult
	if len(hm) == 0 {
		hm = []float64{dist.DefaultHedgeMultiplier}
	}
	hb := g.HeartbeatMS
	if len(hb) == 0 {
		hb = []int{int(dist.DefaultHeartbeatInterval.Milliseconds())}
	}
	st := g.Strikes
	if len(st) == 0 {
		st = []int{dist.DefaultHeartbeatStrikes}
	}
	ls := g.LeaseStrikes
	if len(ls) == 0 {
		ls = []int{0} // inherit the membership plan's setting
	}
	var out []Knobs
	for _, c := range ct {
		for _, a := range ha {
			for _, m := range hm {
				for _, b := range hb {
					for _, s := range st {
						for _, l := range ls {
							out = append(out, Knobs{
								CallTimeoutMS: c, HedgeAfterMS: a, HedgeMult: m,
								HeartbeatMS: b, Strikes: s, LeaseStrikes: l,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// leaseConfig resolves the membership plan's knobs against the registrar
// defaults.
func (m *MembershipPlan) leaseConfig() (lease time.Duration, strikes int) {
	lease = membership.DefaultLeaseInterval
	if m.LeaseMS > 0 {
		lease = time.Duration(m.LeaseMS) * time.Millisecond
	}
	strikes = membership.DefaultLeaseStrikes
	if m.Strikes > 0 {
		strikes = m.Strikes
	}
	return lease, strikes
}
