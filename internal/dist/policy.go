// Scheduling-policy seams.
//
// The Dist-PFor runtime's self-healing behavior — when to hedge a straggling
// partition, when to evict a silent worker, where a dead worker's partitions
// go, how rows split into partitions — is decided by the small pure types
// and functions in this file. They hold no clocks, no sockets, and no
// goroutines: the TCP runtime feeds them wall-clock measurements and the
// deterministic cluster simulator (internal/sim) feeds them virtual-time
// measurements, so both execute the *same* policy code and cannot drift
// apart. The simulator's fidelity test asserts exactly that: the decision
// sequence of a simulated run matches a real in-process cluster run under
// the equivalent fault script.
//
// Every externally visible scheduling decision is also announced through
// Options.OnDecision as a typed Decision, which is what the fidelity test
// (and any curious operator) observes.
package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Default scheduling knobs, shared by cmd/sliceline, cmd/slserve,
// cmd/slworker and the simulator's knob grids. The hedge multiplier and
// heartbeat cadence were chosen by the committed internal/sim scenario
// sweeps (reports/SIM_REPORT_{hedge,heartbeat,elastic}_2026-08-08.json,
// re-verified byte-for-byte by CI; see DESIGN.md, "Scheduling policies and
// how they were tuned"), not by intuition:
//
//   - Hedge multiplier 1.5: over lognormal service times with a 5% Pareto
//     straggler tail at 200 workers, no hedging makespans at 22.0s while any
//     hedging lands near 1s. Mult 1.25 is fastest (0.996s) but wastes 11.7s
//     of duplicate compute; 1.5 is within 5% (1.05s) with half the waste and
//     the best p99 level latency (252ms); 2.0 trades 10% makespan for
//     another 3× waste reduction. 1.5 wins the composite objective.
//   - Heartbeat 1s × 2 strikes: under crash, flap and network-partition
//     faults at 150 workers, a 1s probe cadence beats 2s/4s on makespan
//     (16.9s vs 18.0/18.1s), wasted hedge work and re-shipped bytes — a
//     blackholed worker taxes every level with a rescue hedge until the
//     prober evicts it. 500ms buys slightly better p99 only when paired
//     with a 1-strike limit, which also falsely evicts a flapping worker;
//     at 1s the strike limit makes no measurable difference, so it stays at
//     2 for flap tolerance.
//
// The elastic sweep likewise confirmed membership.DefaultLeaseStrikes = 3:
// 1 strike spuriously expires a flapper and a transiently-down worker (9MB
// re-shipped), 4 detects a real death too slowly; 3 wins makespan, p99 and
// wasted work.
const (
	// DefaultCallTimeout bounds one Load/Eval/Ping RPC.
	DefaultCallTimeout = 10 * time.Second

	// DefaultHedgeMultiplier is the adaptive straggler threshold: hedge a
	// partition once it runs longer than this multiple of the level's median
	// completed-partition duration.
	DefaultHedgeMultiplier = 1.5

	// DefaultHeartbeatInterval is the between-level liveness probe cadence.
	DefaultHeartbeatInterval = 1 * time.Second

	// DefaultHeartbeatStrikes is how many consecutive failed probes evict a
	// worker and re-ship its partitions.
	DefaultHeartbeatStrikes = 2

	// DefaultDrainTimeout bounds the graceful-shutdown drain in slserve and
	// slworker (not simulator-tuned; just deduplicated here).
	DefaultDrainTimeout = 30 * time.Second
)

// PartitionSizes splits rows into nParts balanced contiguous partitions:
// sizes differ by at most one row and every partition is non-empty (callers
// clamp nParts to rows first). It is the single row-partitioning policy,
// used by Cluster.Setup and by the simulator's cost model.
func PartitionSizes(rows, nParts int) []int {
	if nParts <= 0 {
		return nil
	}
	base, rem := rows/nParts, rows%nParts
	sizes := make([]int, nParts)
	for k := range sizes {
		sizes[k] = base
		if k < rem {
			sizes[k]++
		}
	}
	return sizes
}

// NextLiveWorker returns the lowest-indexed live worker excluding avoid, or
// -1 when none is left. This is the failover and hedge target selection
// policy: deterministic (lowest index first) so a faulty run reroutes the
// same way every time.
func NextLiveWorker(alive []bool, avoid int) int {
	for k, a := range alive {
		if a && k != avoid {
			return k
		}
	}
	return -1
}

// ReshipPlan distributes the partitions assigned to a dead worker over the
// live ones, round-robin in partition order. It returns (partition, target)
// moves; an empty plan means no live worker remains. Both the heartbeat
// evictor and the simulator apply this exact plan.
func ReshipPlan(assign []int, alive []bool, dead int) [][2]int {
	live := make([]int, 0, len(alive))
	for k, a := range alive {
		if a {
			live = append(live, k)
		}
	}
	if len(live) == 0 {
		return nil
	}
	var moves [][2]int
	r := 0
	for p, wi := range assign {
		if wi != dead {
			continue
		}
		moves = append(moves, [2]int{p, live[r%len(live)]})
		r++
	}
	return moves
}

// ProbeVerdict classifies one health-probe observation.
type ProbeVerdict int

// Probe verdicts: nothing changed, the worker just came back, or the worker
// crossed the strike limit and must be evicted.
const (
	ProbeOK ProbeVerdict = iota
	ProbeResurrect
	ProbeStrike
	ProbeEvict
)

// ProbeStep is the heartbeat strike discipline as a pure transition: given a
// worker's liveness belief and strike count, apply one probe result. A
// success clears strikes and resurrects a dead worker; a failure strikes,
// and a live worker reaching the limit is evicted. The cluster's prober and
// the simulator both step through this function.
func ProbeStep(alive bool, strikes, limit int, ok bool) (newAlive bool, newStrikes int, v ProbeVerdict) {
	if ok {
		if !alive {
			return true, 0, ProbeResurrect
		}
		return true, 0, ProbeOK
	}
	strikes++
	if alive && strikes >= limit {
		return false, strikes, ProbeEvict
	}
	return alive, strikes, ProbeStrike
}

// HedgePolicy decides when a still-running partition evaluation counts as a
// straggler worth speculative re-execution. It is pure over durations: the
// caller measures elapsed time (wall clock in the TCP runtime, virtual time
// in the simulator) and the policy only does arithmetic on it.
//
// With a fixed threshold the decision is immediate; in adaptive mode the
// threshold is Multiplier × the median completed-partition duration of the
// current level, available only once at least half the level's partitions
// have completed. A zero policy (no fixed delay, no multiplier) never fires.
type HedgePolicy struct {
	fixed time.Duration
	mult  float64
	parts int

	mu   sync.Mutex
	durs []time.Duration
}

// NewHedgePolicy builds the policy for one level evaluation over nParts
// partitions. It returns nil when both knobs are off; a nil policy is valid
// and never fires.
func NewHedgePolicy(fixed time.Duration, mult float64, nParts int) *HedgePolicy {
	if fixed <= 0 && mult <= 0 {
		return nil
	}
	return &HedgePolicy{fixed: fixed, mult: mult, parts: nParts}
}

// Record feeds one completed partition duration into the adaptive median.
func (h *HedgePolicy) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.durs = append(h.durs, d)
	h.mu.Unlock()
}

// Threshold returns the current straggler threshold. With a fixed delay it
// is always available; in adaptive mode it needs completions from at least
// half the level's partitions first. The adaptive threshold is floored at
// one millisecond so a level of near-instant partitions does not hedge
// everything.
func (h *HedgePolicy) Threshold() (time.Duration, bool) {
	if h == nil {
		return 0, false
	}
	if h.fixed > 0 {
		return h.fixed, true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.durs) == 0 || len(h.durs)*2 < h.parts {
		return 0, false
	}
	durs := append([]time.Duration(nil), h.durs...)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	med := durs[len(durs)/2]
	th := time.Duration(float64(med) * h.mult)
	if th < time.Millisecond {
		th = time.Millisecond
	}
	return th, true
}

// Adaptive reports whether the threshold may still become available as more
// partitions complete, so a waiter should re-check periodically.
func (h *HedgePolicy) Adaptive() bool { return h != nil && h.fixed <= 0 && h.mult > 0 }

// DecisionKind enumerates the scheduling decisions the runtime announces.
type DecisionKind int

// Decision kinds, in rough lifecycle order. Each corresponds to one
// sl_dist_* metric increment, so the decision stream is the metric stream
// with identities attached.
const (
	// DecideRetryInPlace: a failed evaluation is retried on the same worker
	// after reloading its partition (the restarted-amnesiac-worker path).
	DecideRetryInPlace DecisionKind = iota
	// DecideFailover: a partition moved off a failed worker mid-evaluation.
	DecideFailover
	// DecideHedge: a speculative duplicate evaluation was launched against a
	// straggling worker.
	DecideHedge
	// DecideHedgeWin: the speculative duplicate finished first.
	DecideHedgeWin
	// DecideEvict: the heartbeat prober struck a worker out.
	DecideEvict
	// DecideReship: a partition was proactively re-shipped off an evicted
	// worker.
	DecideReship
	// DecideResurrect: a previously dead worker answered a probe and rejoined
	// the rotation.
	DecideResurrect
	// DecideDegrade: no live worker remained and the driver evaluated the
	// partition itself.
	DecideDegrade
	// DecideWarmAttach: a partition re-attached to a worker that already held
	// it, without shipping rows.
	DecideWarmAttach
	// DecideRebalance: a membership view change moved a partition to its new
	// ring owner.
	DecideRebalance
)

// String returns the decision name.
func (k DecisionKind) String() string {
	switch k {
	case DecideRetryInPlace:
		return "retry-in-place"
	case DecideFailover:
		return "failover"
	case DecideHedge:
		return "hedge"
	case DecideHedgeWin:
		return "hedge-win"
	case DecideEvict:
		return "evict"
	case DecideReship:
		return "reship"
	case DecideResurrect:
		return "resurrect"
	case DecideDegrade:
		return "degrade"
	case DecideWarmAttach:
		return "warm-attach"
	case DecideRebalance:
		return "rebalance"
	default:
		return fmt.Sprintf("DecisionKind(%d)", int(k))
	}
}

// Decision is one scheduling decision. Worker is the subject (the straggler
// hedged against, the evicted or resurrected worker, the worker retried in
// place); Target is the destination worker where one exists (failover,
// reship, hedge and hedge-win targets); Part is the partition involved, -1
// for worker-scoped decisions. Strikes carries the strike count on evictions.
type Decision struct {
	Kind    DecisionKind
	Part    int
	Worker  int
	Target  int
	Strikes int
}

// String renders a decision compactly, e.g. "failover p3 w1→w2".
func (d Decision) String() string {
	s := d.Kind.String()
	if d.Part >= 0 {
		s += fmt.Sprintf(" p%d", d.Part)
	}
	if d.Worker >= 0 {
		s += fmt.Sprintf(" w%d", d.Worker)
	}
	if d.Target >= 0 {
		s += fmt.Sprintf("→w%d", d.Target)
	}
	if d.Strikes > 0 {
		s += fmt.Sprintf(" strikes=%d", d.Strikes)
	}
	return s
}

// decide announces one decision to the OnDecision hook, if any. Decisions
// from concurrent partition evaluations may arrive concurrently; the hook
// must be safe for concurrent use.
func (c *Cluster) decide(d Decision) {
	if c.opts.OnDecision != nil {
		c.opts.OnDecision(d)
	}
}
