// Package dist provides the distributed backend for SliceLine's slice
// evaluation, the Dist-PFor strategy of the paper's Figure 7(b):
// row-partitioned data-parallel execution across workers that each hold a
// partition of X and e. Workers may live in-process or behind TCP
// (gob-encoded RPC), modelling Spark's broadcast-based distributed matrix
// multiplications including serialization and network overheads. (The
// paper's local MT-PFor plan is core's built-in evaluation at
// Config.BlockSize = b.)
//
// Cluster implements core.ExternalEvaluator, so it plugs directly into
// core.Config.Evaluator while enumeration, pruning, and top-K maintenance
// stay on the driver — exactly the paper's architecture where the candidate
// matrix S is broadcast and X is scanned data-locally.
//
// A Cluster's fleet source is fixed at construction: a fixed worker list
// (NewClusterOpts, DialCluster) or membership views (NewElasticCluster, fed
// by ApplyView or Follow). Both run the same Setup, Eval and failover code;
// they differ only in data the constructor sets — partition count,
// placement, and whether a fleet that empties degrades to the driver.
//
// The Dist-PFor cluster is self-healing: per-call deadlines bound slow and
// hung workers, partitions fail over off dead workers (with in-place reload
// for restarted-but-amnesiac ones), stragglers are hedged by speculative
// re-execution on a second worker, and an optional background heartbeat
// probes workers between levels so death is detected proactively rather
// than mid-Eval. All of it preserves the deterministic partition-order
// merge, so a faulty run returns bit-identical statistics to a fault-free
// one.
package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/matrix"
	"sliceline/internal/membership"
	"sliceline/internal/obs"
)

// Options configures the Dist-PFor cluster's execution and self-healing
// behavior. The zero value disables every timeout and mitigation, matching
// the pre-robustness semantics.
type Options struct {
	// BlockSize is the per-worker evaluation block size. <= 0 selects the
	// automatic size on each worker.
	BlockSize int

	// CallTimeout bounds every Load/Eval/Ping RPC. A call exceeding it is
	// treated as a worker failure and fails over. 0 means no deadline.
	CallTimeout time.Duration

	// HedgeDelay, when > 0, speculatively re-executes a partition on a
	// second live worker once its evaluation has run longer than this fixed
	// threshold; the first well-formed result wins.
	HedgeDelay time.Duration

	// HedgeMultiplier, when > 0, enables adaptive hedging: once at least
	// half of a level's partitions have completed, a still-running
	// partition is hedged when its elapsed time exceeds the multiplier
	// times the median completed-partition duration. Combined with
	// HedgeDelay, the fixed threshold takes precedence.
	HedgeMultiplier float64

	// HeartbeatInterval, when > 0, starts a background health checker at
	// Setup that pings every worker at this interval, between levels, and
	// proactively re-ships partitions off suspected-dead workers instead of
	// discovering death mid-Eval. A previously dead worker that answers a
	// probe again rejoins the rotation as a failover/hedge target.
	HeartbeatInterval time.Duration

	// HeartbeatTimeout bounds one probe. <= 0 defaults to CallTimeout, or
	// 2s when no call timeout is set.
	HeartbeatTimeout time.Duration

	// HeartbeatStrikes is the number of consecutive failed probes before a
	// worker is declared suspect and its partitions are re-shipped. <= 0
	// defaults to 2.
	HeartbeatStrikes int

	// PlacementSeed, when non-zero, content-addresses partitions: the wire
	// partition key becomes a pure function of (seed, partition count,
	// partition index) instead of the bare index. Keyed this way, a worker's
	// partition cache is addressable across jobs and restarts — a rejoining
	// worker that still holds a key re-attaches warm instead of being
	// re-shipped the rows. The seed must name everything that determines the
	// shipped partitions: the data and every setting that changes which
	// columns the evaluator is handed (the server uses the job's data
	// signature together with its resolved configuration signature).
	PlacementSeed uint64

	// OnDecision, when non-nil, receives every scheduling decision the
	// cluster takes (failover, hedge, eviction, re-ship, …) as a typed
	// Decision. Decisions from concurrent partition evaluations may arrive
	// concurrently; the hook must be safe for concurrent use. The simulator's
	// fidelity tests compare this stream against a simulated run's.
	OnDecision func(Decision)

	// Tracer, when non-nil, receives spans for cluster setup, heartbeat
	// evictions, and — when the driver's run context does not already carry a
	// span — evaluations. RPC and partition spans parent under the context's
	// span when one is present (core places its eval span there), so the
	// cluster's trace nests inside the enumeration's even with a nil Tracer
	// here.
	Tracer obs.Tracer

	// Metrics, when non-nil, receives per-RPC latency histograms, retry /
	// failover / hedge / eviction counters and per-worker queue-depth gauges
	// (the sl_dist_* families). Nil disables metric recording at zero cost.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.HeartbeatTimeout <= 0 {
		if o.CallTimeout > 0 {
			o.HeartbeatTimeout = o.CallTimeout
		} else {
			o.HeartbeatTimeout = 2 * time.Second
		}
	}
	if o.HeartbeatStrikes <= 0 {
		o.HeartbeatStrikes = DefaultHeartbeatStrikes
	}
	return o
}

// Cluster is a row-partitioned data-parallel evaluator (Dist-PFor). Setup
// splits the rows into partitions and ships each to a worker; Eval
// broadcasts the candidate slices, evaluates every partition, and merges the
// partial statistics in partition order. When a worker fails mid-run, its
// partition fails over to a healthy worker (the driver retains the
// partitions it shipped at Setup).
//
// The fleet source is fixed at construction. A fixed fleet (NewClusterOpts)
// has one partition per worker, placed on slot p mod n, and a run that loses
// every worker fails. A membership fleet (NewElasticCluster) has
// DefaultElasticPartitions partitions placed by consistent hash over the
// live member IDs, and degrades to the driver when the fleet empties.
type Cluster struct {
	opts Options
	ob   distObs

	// Set by the constructor.
	nParts  int    // partitions per Setup, clamped to the row count
	degrade bool   // evaluate on the driver when no live worker remains
	dial    Dialer // dials the members a view names; nil on a fixed fleet

	// mu guards the worker slots and the partition table. Every Eval takes
	// it, so it is held only briefly and never across an RPC.
	mu sync.Mutex
	// Per-slot state, indexed by worker slot and created only by addSlot.
	// A membership fleet adds a slot per dialed member and never removes
	// one, so partition assignments stay dense integers.
	workers  []Worker
	inView   []bool         // the slot's member is in the current view (always, on a fixed fleet)
	alive    []bool         // presumed live: a failed call or heartbeat eviction clears it
	strikes  []int          // consecutive failed heartbeat probes
	held     []map[int]bool // wire keys the worker reported holding when dialed or rejoined
	inflight []*obs.Gauge   // sl_dist_worker_inflight{worker="N"}
	ready    bool
	parts    []partition // partition p as shipped at Setup
	assign   []int       // partition p → worker slot holding it, -1 = driver-local
	keys     []int       // partition p → wire key (content-addressed when seeded)
	local    []*core.Kernel

	hbStop chan struct{}
	hbDone chan struct{}

	// viewMu guards the membership view. View application holds it while it
	// dials members and ships partitions, and Setup while it places them;
	// Eval never takes it. Lock order: viewMu, then mu.
	viewMu  sync.Mutex
	members map[string]*memberSlot
	ring    *membership.Ring
	version uint64
	closed  bool
}

type partition struct {
	x *matrix.CSR
	e []float64
}

// Worker is one executor holding row partitions of the dataset, keyed by
// partition id so failed partitions can fail over to workers that already
// hold their own. Every operation takes a context carrying the driver's
// per-call deadline; implementations must abort promptly when it is done.
type Worker interface {
	// Load ships partition part to the worker.
	Load(ctx context.Context, part int, x *matrix.CSR, e []float64) error
	// Eval evaluates the candidates against the worker's copy of partition
	// part.
	Eval(ctx context.Context, part int, cols [][]int, level, blockSize int) (ss, se, sm []float64, err error)
	// Ping probes liveness; the cluster's heartbeat checker calls it
	// between levels.
	Ping(ctx context.Context) error
	// Close releases the worker.
	Close() error
}

// NewClusterOpts returns a Dist-PFor evaluator over a fixed fleet: the given
// workers, one partition each. The zero Options selects the automatic block
// size on each worker and disables timeouts, hedging and heartbeats.
func NewClusterOpts(workers []Worker, opts Options) (*Cluster, error) {
	if len(workers) == 0 {
		return nil, errors.New("dist: cluster needs at least one worker")
	}
	c := &Cluster{opts: opts.withDefaults(), ob: newDistObs(opts.Metrics), nParts: len(workers)}
	for _, w := range workers {
		c.addSlot(w, nil)
	}
	return c, nil
}

// addSlot creates the state of one worker slot — the one place either fleet
// source does — and returns its index. The slot starts in the view,
// presumed live, with its queue-depth gauge registered.
func (c *Cluster) addSlot(w Worker, held map[int]bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	wi := len(c.workers)
	c.workers = append(c.workers, w)
	c.inView = append(c.inView, true)
	c.alive = append(c.alive, true)
	c.strikes = append(c.strikes, 0)
	c.held = append(c.held, held)
	c.inflight = append(c.inflight, c.ob.workerGauge(wi))
	return wi
}

// callCtx derives the per-RPC context from the run context.
func (c *Cluster) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.opts.CallTimeout > 0 {
		return context.WithTimeout(ctx, c.opts.CallTimeout)
	}
	return context.WithCancel(ctx)
}

// Setup partitions X and e row-wise and ships the partitions, the
// data-locality setup of the paper's distributed plan. The driver retains
// the partitions so they can fail over to healthy workers. A partition is a
// row-range view of x and e: it copies no column ids.
//
// Partitioning is balanced: sizes differ by at most one row, and no worker
// is shipped an empty partition — with fewer rows than partitions only the
// first n partitions exist; the remaining workers stay pure failover/hedge
// targets.
func (c *Cluster) Setup(ctx context.Context, x *matrix.CSR, e []float64) error {
	c.stopHeartbeat()
	sp := c.startSpan(ctx, "dist.setup")
	defer sp.End()
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	n := x.Rows()
	nParts := min(c.nParts, n)
	c.mu.Lock()
	w := len(c.workers)
	c.ready = false
	// One liveness rule for both fleet sources: every slot whose member is
	// in the current view starts presumed live, with no strikes. A fixed
	// fleet's view is all its workers.
	for wi := range c.alive {
		c.alive[wi] = c.inView[wi]
		c.strikes[wi] = 0
	}
	c.parts = c.parts[:0]
	c.assign = c.assign[:0]
	c.keys = c.keys[:0]
	c.local = nil
	for p := 0; p < nParts; p++ {
		key := p
		if c.opts.PlacementSeed != 0 {
			// Clearing the top bit keeps the key a non-negative int while
			// preserving 63 bits of the content address.
			key = int(membership.PartitionKey(c.opts.PlacementSeed, nParts, p) >> 1)
		}
		c.keys = append(c.keys, key)
	}
	c.mu.Unlock()
	sp.SetInt("workers", int64(w))
	sp.SetInt("rows", int64(n))
	sp.SetInt("partitions", int64(nParts))
	c.ob.partitions.Set(float64(nParts))
	sizes := PartitionSizes(n, nParts)
	lo := 0
	for k := 0; k < nParts; k++ {
		hi := lo + sizes[k]
		part := partition{x: x.RowRange(lo, hi), e: e[lo:hi]}
		lo = hi
		wi, err := c.shipPartition(ctx, sp, k, nParts, part)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.parts = append(c.parts, part)
		c.assign = append(c.assign, wi)
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.ready = true
	c.mu.Unlock()
	c.startHeartbeat()
	return nil
}

// shipPartition puts partition k on its placed worker at Setup, or
// re-attaches it there warm, and returns the slot holding it: -1 when it
// stays on the driver. A worker whose initial Load fails is marked dead and
// the partition goes to another live one, so a cluster with a dead member
// at startup still comes up. Callers hold viewMu.
func (c *Cluster) shipPartition(ctx context.Context, sp *obs.Span, k, nParts int, part partition) (int, error) {
	wi := c.placeLocked(k, nParts)
	if wi >= 0 && !c.isAlive(wi) {
		wi = c.nextLive(-1)
	}
	// Content-addressed keys let Setup re-attach without re-shipping: a
	// worker that still caches this exact partition from an earlier job (or
	// before a flap) reports warm and keeps it. A claim gone stale by
	// eviction is harmless — the first Eval on it fails and reloads in place.
	// Bare keys name a partition only within one Setup, so they never
	// re-attach here.
	if wi >= 0 && c.opts.PlacementSeed != 0 && c.warmAt(wi, c.wireKey(k)) {
		sp.Event(fmt.Sprintf("partition %d re-attached warm on worker %d", k, wi))
		c.ob.warmAttach.Inc()
		c.decide(Decision{Kind: DecideWarmAttach, Part: k, Worker: wi, Target: -1})
		return wi, nil
	}
	for wi >= 0 {
		err := c.loadRPC(ctx, sp, wi, k, part)
		if err == nil {
			return wi, nil
		}
		if ctx.Err() != nil {
			return -1, fmt.Errorf("dist: loading worker %d: %w", wi, err)
		}
		sp.Event(fmt.Sprintf("worker %d failed initial load, failing over", wi))
		c.markDead(wi)
		if wi = c.nextLive(-1); wi < 0 && !c.degrade {
			return -1, fmt.Errorf("dist: no live worker accepts partition %d: %w", k, err)
		}
	}
	if !c.degrade {
		return -1, fmt.Errorf("dist: no live worker accepts partition %d", k)
	}
	sp.Event(fmt.Sprintf("partition %d held on the driver (no live workers)", k))
	return -1, nil
}

// placeLocked returns the preferred worker slot of partition p out of
// nParts, or -1 for none: slot p mod n on a fixed fleet, the ring owner's
// slot on a membership fleet. Callers hold viewMu.
func (c *Cluster) placeLocked(p, nParts int) int {
	if c.dial == nil {
		return p % c.workerCount()
	}
	owner, ok := c.ring.Owner(membership.PartitionKey(c.opts.PlacementSeed, nParts, p))
	if !ok {
		return -1
	}
	return c.members[owner].wi
}

// warmAt reports whether the in-view worker in slot wi said it holds wire
// key key when it was last dialed or rejoined.
func (c *Cluster) warmAt(wi, key int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inView[wi] && c.held[wi][key]
}

// workerCount returns the number of worker slots.
func (c *Cluster) workerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// slot snapshots one worker slot and its queue-depth gauge. Slots are never
// removed, so both stay valid without holding the lock across the RPC.
func (c *Cluster) slot(wi int) (Worker, *obs.Gauge) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[wi], c.inflight[wi]
}

func (c *Cluster) isAlive(wi int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return wi >= 0 && wi < len(c.alive) && c.alive[wi]
}

// wireKey maps a partition index to the key used on the Worker interface:
// the bare index, or the content address when PlacementSeed is set. keys is
// written once per Setup before ready flips, then read-only.
func (c *Cluster) wireKey(p int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.keys[p]
}

func (c *Cluster) assignOf(p int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.assign[p]
}

func (c *Cluster) partitionCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.ready {
		return 0
	}
	return len(c.parts)
}

// Eval broadcasts the candidates, evaluates every partition concurrently,
// and sums the partial (ss, se) vectors and maxes the sm vectors. A failed
// worker is marked dead and its partition retried on a healthy worker; a
// straggling partition is speculatively re-executed on a second worker when
// hedging is enabled (first well-formed result wins).
//
// Partials are merged in partition order after all evaluations complete:
// float64 addition is not associative, so merging in goroutine-completion
// order — or folding in a hedged duplicate — would make repeated
// evaluations of the same candidates return se values differing in the last
// ULPs. The differential test harness asserts run-to-run determinism per
// plan, faults or not.
func (c *Cluster) Eval(ctx context.Context, cols [][]int, level int) (ss, se, sm []float64, err error) {
	c.mu.Lock()
	ready := c.ready
	nParts := len(c.parts)
	c.mu.Unlock()
	if !ready {
		return nil, nil, nil, errors.New("dist: Eval before Setup")
	}
	esp := c.startSpan(ctx, "dist.eval")
	defer esp.End()
	esp.SetInt("level", int64(level))
	esp.SetInt("candidates", int64(len(cols)))
	esp.SetInt("partitions", int64(nParts))
	ctx = obs.ContextWith(ctx, esp)
	n := len(cols)
	ss = make([]float64, n)
	se = make([]float64, n)
	sm = make([]float64, n)
	if nParts == 0 {
		// Zero-row dataset: nothing was shipped, every statistic is zero.
		return ss, se, sm, nil
	}
	type partial struct {
		ss, se, sm []float64
	}
	hc := c.newHedger(nParts)
	partials := make([]partial, nParts)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for p := 0; p < nParts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pss, pse, psm, werr := c.evalPartitionHedged(ctx, hc, p, cols, level)
			if werr != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = werr
				}
				mu.Unlock()
				return
			}
			partials[p] = partial{ss: pss, se: pse, sm: psm}
		}(p)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, nil, firstErr
	}
	for _, pt := range partials {
		for i := 0; i < n; i++ {
			ss[i] += pt.ss[i]
			se[i] += pt.se[i]
			if pt.sm[i] > sm[i] {
				sm[i] = pt.sm[i]
			}
		}
	}
	return ss, se, sm, nil
}

// tryEval runs one Eval on worker wi and validates the result shape and
// domain. A worker answering with partial results (wrong vector lengths) or
// corrupt statistics (NaN, infinite, or negative values — e.g. a torn or
// garbled reply) is treated exactly like a crashed worker: silently folding
// malformed vectors into the aggregate would corrupt every slice statistic
// downstream.
func (c *Cluster) tryEval(ctx context.Context, wi, p int, cols [][]int, level int) (ss, se, sm []float64, err error) {
	sp := obs.FromContext(ctx).Child("dist.rpc")
	sp.SetStr("op", "eval")
	sp.SetInt("worker", int64(wi))
	sp.SetInt("partition", int64(p))
	sp.SetInt("level", int64(level))
	sp.SetInt("candidates", int64(len(cols)))
	w, g := c.slot(wi)
	g.Add(1)
	start := time.Now()
	defer func() {
		g.Add(-1)
		c.ob.evalSecs.Observe(time.Since(start).Seconds())
		if err != nil {
			c.ob.evalErrs.Inc()
			sp.SetBool("error", true)
			sp.Event("error: " + err.Error())
		}
		sp.End()
	}()
	cctx, cancel := c.callCtx(obs.ContextWith(ctx, sp))
	defer cancel()
	ss, se, sm, err = w.Eval(cctx, c.wireKey(p), cols, level, c.opts.BlockSize)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(ss) != len(cols) || len(se) != len(cols) || len(sm) != len(cols) {
		return nil, nil, nil, fmt.Errorf("dist: worker %d returned %d/%d/%d statistics for %d candidates",
			wi, len(ss), len(se), len(sm), len(cols))
	}
	for i := range ss {
		if !validStat(ss[i]) || !validStat(se[i]) || !validStat(sm[i]) {
			return nil, nil, nil, fmt.Errorf("dist: worker %d returned corrupt statistics (ss=%v se=%v sm=%v at %d)",
				wi, ss[i], se[i], sm[i], i)
		}
	}
	return ss, se, sm, nil
}

// validStat reports whether one partial statistic is in its domain: slice
// sizes, error sums, and error maxima are all finite and non-negative.
func validStat(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

func (c *Cluster) loadPartition(ctx context.Context, wi, p int) error {
	c.mu.Lock()
	part := c.parts[p]
	c.mu.Unlock()
	return c.loadRPC(ctx, obs.FromContext(ctx), wi, p, part)
}

// loadRPC ships one partition to a worker under the per-call deadline, with
// an RPC span (parented under parent when tracing is on) and latency /
// queue-depth / error metrics.
func (c *Cluster) loadRPC(ctx context.Context, parent *obs.Span, wi, p int, part partition) (err error) {
	sp := parent.Child("dist.rpc")
	sp.SetStr("op", "load")
	sp.SetInt("worker", int64(wi))
	sp.SetInt("partition", int64(p))
	sp.SetInt("rows", int64(part.x.Rows()))
	w, g := c.slot(wi)
	g.Add(1)
	start := time.Now()
	defer func() {
		g.Add(-1)
		c.ob.loadSecs.Observe(time.Since(start).Seconds())
		if err != nil {
			c.ob.loadErrs.Inc()
			sp.SetBool("error", true)
			sp.Event("error: " + err.Error())
		}
		sp.End()
	}()
	lctx, cancel := c.callCtx(obs.ContextWith(ctx, sp))
	defer cancel()
	return w.Load(lctx, c.wireKey(p), part.x, part.e)
}

func (c *Cluster) markDead(wi int) {
	c.mu.Lock()
	was := c.alive[wi]
	c.alive[wi] = false
	c.mu.Unlock()
	if was {
		c.ob.deaths.Inc()
	}
}

func (c *Cluster) setAssign(p, wi int) {
	c.mu.Lock()
	c.assign[p] = wi
	c.mu.Unlock()
}

// nextLive returns the lowest-indexed live worker excluding avoid, or -1,
// per the shared NextLiveWorker selection policy.
func (c *Cluster) nextLive(avoid int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return NextLiveWorker(c.alive, avoid)
}

// evalPartitionChain evaluates one partition, failing over to other live
// workers when the assigned one errors, times out, or returns malformed
// statistics. avoid (when >= 0) excludes one worker from selection — hedged
// requests must not land on the straggler they are hedging against. It
// returns the worker that produced the result so the caller can update the
// assignment.
func (c *Cluster) evalPartitionChain(ctx context.Context, p int, cols [][]int, level, avoid int) (ss, se, sm []float64, winner int, err error) {
	sp := obs.FromContext(ctx) // the partition (or hedge) span, nil when tracing is off
	for attempt := 0; attempt <= c.workerCount(); attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			return nil, nil, nil, -1, err
		}
		c.mu.Lock()
		wi := c.assign[p]
		ok := wi >= 0 && c.alive[wi] && wi != avoid
		c.mu.Unlock()
		if ok {
			ss, se, sm, err = c.tryEval(ctx, wi, p, cols, level)
			if err == nil {
				return ss, se, sm, wi, nil
			}
			if ctx.Err() != nil {
				// The run (or this hedge attempt) was cancelled, not the
				// worker misbehaving — do not poison its liveness.
				return nil, nil, nil, -1, err
			}
			// The worker may be alive but amnesiac: a TCP worker restarted
			// on the same address answers RemoteWorker's redial but has lost
			// every partition. Reload the partition in place once before
			// declaring the worker dead, so a restarted worker rejoins the
			// run instead of shifting its load onto the survivors.
			sp.Event(fmt.Sprintf("reloading partition in place on worker %d", wi))
			c.ob.retries.Inc()
			c.decide(Decision{Kind: DecideRetryInPlace, Part: p, Worker: wi, Target: -1})
			if lerr := c.loadPartition(ctx, wi, p); lerr == nil {
				ss, se, sm, err = c.tryEval(ctx, wi, p, cols, level)
				if err == nil {
					return ss, se, sm, wi, nil
				}
			}
			if ctx.Err() != nil {
				return nil, nil, nil, -1, err
			}
			// Mark the worker dead; its other partitions will fail over as
			// their own evaluations error out.
			sp.Event(fmt.Sprintf("marking worker %d dead", wi))
			c.markDead(wi)
		}
		// Find a healthy worker, reship the partition, and retry.
		next := c.nextLive(avoid)
		if next < 0 {
			if c.degrade {
				// The fleet is gone (or never arrived): evaluate the
				// partition on the driver with the same kernel a worker
				// would use, so the run completes degraded with
				// bit-identical statistics instead of erroring.
				sp.Event(fmt.Sprintf("degraded: evaluating partition %d on the driver", p))
				c.ob.degraded.Inc()
				c.decide(Decision{Kind: DecideDegrade, Part: p, Worker: -1, Target: -1})
				ss, se, sm = c.evalLocal(p, cols, level)
				return ss, se, sm, -1, nil
			}
			if err == nil {
				err = errors.New("dist: worker unavailable")
			}
			return nil, nil, nil, -1, fmt.Errorf("dist: no live workers left for partition %d: %w", p, err)
		}
		// A hedge chain's first reroute is just the hedge picking a worker
		// other than the straggler, not a failover.
		if avoid < 0 || attempt > 0 {
			sp.Event(fmt.Sprintf("failing over partition to worker %d", next))
			c.ob.failovers.Inc()
			c.ob.retries.Inc()
			c.decide(Decision{Kind: DecideFailover, Part: p, Worker: c.assignOf(p), Target: next})
		}
		c.setAssign(p, next)
		if lerr := c.loadPartition(ctx, next, p); lerr != nil {
			if ctx.Err() != nil {
				return nil, nil, nil, -1, lerr
			}
			c.markDead(next)
			continue
		}
	}
	if c.degrade && ctx.Err() == nil {
		sp.Event(fmt.Sprintf("degraded: partition %d failed on every worker, evaluating on the driver", p))
		c.ob.degraded.Inc()
		c.decide(Decision{Kind: DecideDegrade, Part: p, Worker: -1, Target: -1})
		ss, se, sm = c.evalLocal(p, cols, level)
		return ss, se, sm, -1, nil
	}
	return nil, nil, nil, -1, fmt.Errorf("dist: partition %d failed on every worker: %w", p, err)
}

// evalLocal evaluates one partition on the driver — the degraded path when
// no worker can take it. It uses the same kernel construction as
// InProcessWorker and the worker-side Service, so a degraded run's
// statistics are bit-identical to a healthy one's. The
// kernel is built lazily on first degradation and cached per partition.
func (c *Cluster) evalLocal(p int, cols [][]int, level int) (ss, se, sm []float64) {
	c.mu.Lock()
	if c.local == nil {
		c.local = make([]*core.Kernel, len(c.parts))
	}
	k := c.local[p]
	if k == nil {
		part := c.parts[p]
		k = core.NewKernel(part.x, part.e, nil)
		c.local[p] = k
	}
	c.mu.Unlock()
	n := len(cols)
	ss = make([]float64, n)
	se = make([]float64, n)
	sm = make([]float64, n)
	k.Eval(cols, level, c.opts.BlockSize, ss, se, sm)
	return ss, se, sm
}

// newHedger builds the level's straggler policy from the cluster knobs; the
// policy logic itself lives in HedgePolicy (policy.go), shared with the
// simulator.
func (c *Cluster) newHedger(nParts int) *HedgePolicy {
	return NewHedgePolicy(c.opts.HedgeDelay, c.opts.HedgeMultiplier, nParts)
}

// hedgeRecheck is how often an adaptive hedger re-evaluates its evidence
// while no threshold is available yet.
const hedgeRecheck = 2 * time.Millisecond

// evalPartitionHedged evaluates one partition with straggler mitigation:
// when the primary attempt outlives the hedge threshold, the partition is
// speculatively re-executed on another live worker (shipping it there if
// needed) and the first well-formed result wins. The loser is cancelled;
// its result, if any, is discarded whole — never merged — so determinism is
// preserved.
func (c *Cluster) evalPartitionHedged(ctx context.Context, hc *HedgePolicy, p int, cols [][]int, level int) (ss, se, sm []float64, err error) {
	type outcome struct {
		ss, se, sm []float64
		winner     int
		err        error
	}
	psp := obs.FromContext(ctx).Child("dist.partition")
	psp.SetInt("partition", int64(p))
	psp.SetInt("level", int64(level))
	defer psp.End()
	ctx = obs.ContextWith(ctx, psp)
	start := time.Now()
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	primary := make(chan outcome, 1)
	go func() {
		oss, ose, osm, wi, oerr := c.evalPartitionChain(pctx, p, cols, level, -1)
		primary <- outcome{oss, ose, osm, wi, oerr}
	}()
	// A nil policy (hedging off) never arms the timer, so the loop below
	// just waits for the primary.
	hcancel := func() {}
	defer func() { hcancel() }()
	var hedge chan outcome
	var primaryErr error
	for {
		var timer *time.Timer
		var timerC <-chan time.Time
		if hedge == nil && primary != nil {
			if th, ok := hc.Threshold(); ok {
				wait := th - time.Since(start)
				if wait < 0 {
					wait = 0
				}
				timer = time.NewTimer(wait)
			} else if hc.Adaptive() {
				timer = time.NewTimer(hedgeRecheck)
			}
			if timer != nil {
				timerC = timer.C
			}
		}
		select {
		case out := <-primary:
			stopTimer(timer)
			if out.err == nil {
				hcancel()
				hc.Record(time.Since(start))
				c.setAssign(p, out.winner)
				psp.SetInt("winner", int64(out.winner))
				return out.ss, out.se, out.sm, nil
			}
			if hedge == nil {
				return nil, nil, nil, out.err
			}
			primary, primaryErr = nil, out.err
		case out := <-hedge:
			stopTimer(timer)
			if out.err == nil {
				pcancel()
				hc.Record(time.Since(start))
				c.setAssign(p, out.winner)
				c.ob.hedgeWins.Inc()
				c.decide(Decision{Kind: DecideHedgeWin, Part: p, Worker: out.winner, Target: -1})
				psp.SetInt("winner", int64(out.winner))
				psp.SetBool("hedge_won", true)
				return out.ss, out.se, out.sm, nil
			}
			if primary == nil {
				return nil, nil, nil, primaryErr
			}
			hedge = nil // primary may still succeed; keep waiting
		case <-timerC:
			stopTimer(timer)
			if th, ok := hc.Threshold(); !ok || time.Since(start) < th {
				continue // adaptive evidence not conclusive yet
			}
			c.mu.Lock()
			straggler := c.assign[p]
			c.mu.Unlock()
			if c.nextLive(straggler) < 0 {
				continue // nowhere to hedge; keep waiting on the primary
			}
			c.ob.hedges.Inc()
			c.decide(Decision{Kind: DecideHedge, Part: p, Worker: straggler, Target: -1})
			psp.Event(fmt.Sprintf("hedge fired against straggling worker %d", straggler))
			psp.SetBool("hedged", true)
			hctx, cancel := context.WithCancel(ctx)
			hcancel = cancel
			ch := make(chan outcome, 1)
			hedge = ch
			go func() {
				oss, ose, osm, wi, oerr := c.evalPartitionChain(hctx, p, cols, level, straggler)
				ch <- outcome{oss, ose, osm, wi, oerr}
			}()
		case <-ctx.Done():
			stopTimer(timer)
			return nil, nil, nil, ctx.Err()
		}
	}
}

func stopTimer(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

// startHeartbeat launches the background health checker when configured.
func (c *Cluster) startHeartbeat() {
	if c.opts.HeartbeatInterval <= 0 {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.mu.Lock()
	c.hbStop, c.hbDone = stop, done
	c.mu.Unlock()
	go c.heartbeatLoop(stop, done)
}

func (c *Cluster) stopHeartbeat() {
	c.mu.Lock()
	stop, done := c.hbStop, c.hbDone
	c.hbStop, c.hbDone = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (c *Cluster) heartbeatLoop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(c.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		c.probeAll(stop)
	}
}

// probeAll pings every worker once. A worker failing HeartbeatStrikes
// consecutive probes is declared suspect: it is marked dead and its
// partitions are re-shipped to live workers immediately, so the next Eval
// never has to discover the death the hard way. A dead worker that answers
// again is resurrected into the rotation (its partitions were already moved;
// it serves as a failover/hedge target until one lands on it).
func (c *Cluster) probeAll(stop chan struct{}) {
	c.mu.Lock()
	workers := append([]Worker(nil), c.workers...)
	c.mu.Unlock()
	for wi := range workers {
		select {
		case <-stop:
			return
		default:
		}
		pctx, cancel := context.WithTimeout(context.Background(), c.opts.HeartbeatTimeout)
		pstart := time.Now()
		err := workers[wi].Ping(pctx)
		cancel()
		c.ob.pingSecs.Observe(time.Since(pstart).Seconds())
		if err != nil {
			c.ob.pingErrs.Inc()
		}
		// The strike discipline itself is the shared ProbeStep policy; this
		// loop only measures probes and applies the verdicts.
		c.mu.Lock()
		newAlive, newStrikes, verdict := ProbeStep(c.alive[wi], c.strikes[wi], c.opts.HeartbeatStrikes, err == nil)
		c.alive[wi], c.strikes[wi] = newAlive, newStrikes
		c.mu.Unlock()
		switch verdict {
		case ProbeResurrect:
			c.ob.resurrections.Inc()
			c.decide(Decision{Kind: DecideResurrect, Part: -1, Worker: wi, Target: -1})
			rsp := obs.Start(c.opts.Tracer, "dist.resurrection")
			rsp.SetInt("worker", int64(wi))
			rsp.End()
		case ProbeEvict:
			c.ob.evictions.Inc()
			c.decide(Decision{Kind: DecideEvict, Part: -1, Worker: wi, Target: -1, Strikes: newStrikes})
			esp := obs.Start(c.opts.Tracer, "dist.eviction")
			esp.SetInt("worker", int64(wi))
			esp.SetInt("strikes", int64(newStrikes))
			esp.Event("worker evicted by heartbeat; re-shipping its partitions")
			c.reshipFrom(wi, esp)
			esp.End()
		}
	}
}

// reshipFrom moves every partition assigned to a suspected-dead worker onto
// live workers, round-robin. A failed re-ship leaves the assignment for the
// mid-Eval failover path to retry.
func (c *Cluster) reshipFrom(dead int, sp *obs.Span) {
	c.mu.Lock()
	moves := ReshipPlan(c.assign, c.alive, dead)
	c.mu.Unlock()
	for _, m := range moves {
		p, target := m[0], m[1]
		// Bound the re-ship even when no CallTimeout is configured — a hung
		// target must not wedge the heartbeat loop (Close waits for it).
		rctx, cancel := context.WithTimeout(context.Background(), c.opts.HeartbeatTimeout)
		err := c.loadPartition(obs.ContextWith(rctx, sp), target, p)
		cancel()
		if err == nil {
			c.ob.reships.Inc()
			c.decide(Decision{Kind: DecideReship, Part: p, Worker: dead, Target: target})
			sp.Event(fmt.Sprintf("partition %d re-shipped to worker %d", p, target))
			c.setAssign(p, target)
		}
	}
}

// Close stops view application and the health checker and shuts down all
// workers, returning the first error.
func (c *Cluster) Close() error {
	c.viewMu.Lock()
	c.closed = true
	c.viewMu.Unlock()
	c.stopHeartbeat()
	c.mu.Lock()
	workers := append([]Worker(nil), c.workers...)
	c.mu.Unlock()
	var first error
	for _, wk := range workers {
		if err := wk.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// InProcessWorker runs the worker-side Service in the driver process: the
// no-network reference worker of tests and the simulated cluster. Calls go
// through the same Load/Eval/Parts code a TCP worker serves, checks
// included; only the network and gob are skipped.
type InProcessWorker struct {
	svc Service
}

// Load implements Worker.
func (w *InProcessWorker) Load(_ context.Context, part int, x *matrix.CSR, e []float64) error {
	return w.svc.Load(loadArgs(part, x, e), &LoadReply{})
}

// Eval implements Worker.
func (w *InProcessWorker) Eval(_ context.Context, part int, cols [][]int, level, blockSize int) (ss, se, sm []float64, err error) {
	args, err := evalArgs(part, cols, level, blockSize)
	if err != nil {
		return nil, nil, nil, err
	}
	var reply EvalReply
	err = w.svc.Eval(args, &reply)
	return reply.SS, reply.SE, reply.SM, err
}

// Ping implements Worker.
func (w *InProcessWorker) Ping(context.Context) error { return nil }

// Parts implements PartitionLister: the partition keys this worker holds,
// sorted for determinism.
func (w *InProcessWorker) Parts(context.Context) ([]int, error) {
	var reply PartsReply
	err := w.svc.Parts(&PartsArgs{}, &reply)
	return reply.Keys, err
}

// Close implements Worker.
func (w *InProcessWorker) Close() error { return nil }

var _ core.ExternalEvaluator = (*Cluster)(nil)
