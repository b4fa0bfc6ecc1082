package sim

import (
	"fmt"
	"sort"
	"time"

	"sliceline/internal/dist"
	"sliceline/internal/faults"
	"sliceline/internal/membership"
)

// Metrics is what one simulated run measured. Times are virtual milliseconds;
// everything here is deterministic given (scenario, knobs).
type Metrics struct {
	MakespanMS    float64 `json:"makespan_ms"`
	SetupMS       float64 `json:"setup_ms"`
	LevelP50MS    float64 `json:"level_p50_ms"`
	LevelP99MS    float64 `json:"level_p99_ms"`
	WastedHedgeMS float64 `json:"wasted_hedge_ms"`

	Hedges        int `json:"hedges"`
	HedgeWins     int `json:"hedge_wins"`
	Retries       int `json:"retries"`
	Failovers     int `json:"failovers"`
	Evictions     int `json:"evictions"`
	Resurrections int `json:"resurrections"`
	Reships       int `json:"reships"`
	Degraded      int `json:"degraded"`
	WarmAttaches  int `json:"warm_attaches"`
	Rebalances    int `json:"rebalances"`
	Expiries      int `json:"expiries"`
	Joins         int `json:"joins"`

	BytesShipped   int64 `json:"bytes_shipped"`
	BytesReshipped int64 `json:"bytes_reshipped"`
	RPCs           int64 `json:"rpcs"`
	Events         int64 `json:"events"`
}

// Result is one simulated run: the knobs it ran under, what it measured, and
// the full scheduling-decision stream (the same dist.Decision values the TCP
// runtime announces through Options.OnDecision — fidelity tests compare the
// two streams directly).
type Result struct {
	Knobs     Knobs
	Metrics   Metrics
	Decisions []dist.Decision
	Err       string
}

// simHedgeRecheck mirrors the runtime's adaptive-hedge re-check cadence.
const simHedgeRecheck = 2 * time.Millisecond

// inflightCall is one call being serviced by a worker; a crash mid-service
// aborts it (connection reset) instead of letting it reply.
type inflightCall struct {
	completeT *timer
	abort     func()
}

// simWorker is one modeled worker process.
type simWorker struct {
	id        int
	up        bool
	reachable bool
	slowMult  float64
	sched     *faults.Schedule
	calls     [3]int
	holds     map[int]bool
	rng       *RNG
	inflight  []*inflightCall
	announceT *timer
}

func (w *simWorker) dropInflight(ic *inflightCall) {
	for i, c := range w.inflight {
		if c == ic {
			w.inflight = append(w.inflight[:i], w.inflight[i+1:]...)
			return
		}
	}
}

// runner executes one scenario at one grid point. It is single-threaded:
// everything happens inside engine callbacks, so no locks and no
// nondeterminism.
type runner struct {
	e       *engine
	sc      Scenario
	k       Knobs
	topo    topoModel
	workers []*simWorker
	drng    *RNG // driver-side draws (degraded local evaluation)

	// Driver scheduling state, mirroring dist.Cluster.
	alive    []bool
	strikes  []int
	assign   []int
	partRows []int

	callTimeout time.Duration
	hbTimeout   time.Duration
	hbInterval  time.Duration

	// Membership (elastic) state, mirroring Registrar and a membership-fleet
	// dist.Cluster, which degrades to the driver when the fleet empties.
	elastic     bool
	lease       time.Duration
	leaseLimit  int
	member      []bool
	regRenewed  []bool
	regStrikes  []int
	rebalancing bool
	rebalPend   bool
	setupDone   bool

	decisions []dist.Decision
	levelDurs []time.Duration
	wasted    time.Duration
	m         Metrics

	done   bool
	failed error
}

// Run simulates one scenario at one grid point. The result is a pure
// function of (sc, knobs): same inputs, byte-identical outcome.
func Run(sc Scenario, k Knobs) Result {
	r := newRunner(sc, k)
	r.start()
	err := r.e.runUntil(func() bool { return r.done })
	if err == nil {
		err = r.failed
	}
	res := Result{Knobs: k, Metrics: r.metrics(), Decisions: r.decisions}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

func newRunner(sc Scenario, k Knobs) *runner {
	nW := sc.Workers
	nP := sc.Partitions
	if nP > sc.Rows {
		nP = sc.Rows
	}
	r := &runner{
		e:           &engine{},
		sc:          sc,
		k:           k,
		topo:        newTopoModel(sc.Topology),
		drng:        NewRNG(Mix64(sc.Seed, 0xd121)),
		alive:       make([]bool, nW),
		strikes:     make([]int, nW),
		assign:      make([]int, nP),
		partRows:    dist.PartitionSizes(sc.Rows, nP),
		callTimeout: k.CallTimeout(),
		hbInterval:  time.Duration(k.HeartbeatMS) * time.Millisecond,
		elastic:     sc.Membership != nil,
	}
	// Mirror dist.Options.withDefaults: the probe deadline falls back to the
	// call timeout, then 2s.
	r.hbTimeout = r.callTimeout
	if r.hbTimeout <= 0 {
		r.hbTimeout = 2 * time.Second
	}
	for wi := 0; wi < nW; wi++ {
		w := &simWorker{
			id:        wi,
			up:        true,
			reachable: true,
			slowMult:  1,
			holds:     make(map[int]bool),
			rng:       NewRNG(Mix64(sc.Seed, uint64(wi)+1)),
		}
		if sc.Service.StragglerProb > 0 && w.rng.Float64() < sc.Service.StragglerProb {
			w.slowMult = sc.Service.StragglerMult.Sample(w.rng)
			if w.slowMult < 1 {
				w.slowMult = 1
			}
		}
		r.workers = append(r.workers, w)
	}
	r.buildFaultSchedules()
	if r.elastic {
		r.lease, r.leaseLimit = sc.Membership.leaseConfig()
		if k.LeaseStrikes > 0 {
			r.leaseLimit = k.LeaseStrikes
		}
		r.member = make([]bool, nW)
		r.regRenewed = make([]bool, nW)
		r.regStrikes = make([]int, nW)
	} else {
		for wi := range r.alive {
			r.alive[wi] = true
		}
	}
	return r
}

func (r *runner) buildFaultSchedules() {
	f := r.sc.Faults
	var perWorker []*faults.Schedule
	if f != nil && len(f.Script) > 0 {
		perWorker = make([]*faults.Schedule, len(r.workers))
		for _, rule := range f.Script {
			if perWorker[rule.Worker] == nil {
				perWorker[rule.Worker] = faults.NewSchedule()
			}
			op, _ := faults.ParseOp(rule.Op) // validated in Scenario.Validate
			kind, _ := faults.ParseKind(rule.Kind)
			perWorker[rule.Worker].On(op, rule.Call, faults.Action{
				Kind:  kind,
				Delay: msToDur(rule.DelayMS),
			})
		}
	}
	for wi, w := range r.workers {
		if perWorker != nil && perWorker[wi] != nil {
			w.sched = perWorker[wi]
		} else if f != nil && f.Seeded != nil {
			s := f.Seeded
			w.sched = faults.Seeded(s.Seed+int64(wi), faults.Profile{
				DelayPerMille:       s.DelayPerMille,
				HangPerMille:        s.HangPerMille,
				CrashBeforePerMille: s.CrashBeforePerMille,
				CrashAfterPerMille:  s.CrashAfterPerMille,
				ShortPerMille:       s.ShortPerMille,
				CorruptPerMille:     s.CorruptPerMille,
				MaxDelay:            msToDur(s.MaxDelayMS),
			})
		}
	}
}

func (r *runner) start() {
	if f := r.sc.Faults; f != nil {
		for _, c := range f.Crashes {
			c := c
			r.e.at(msToDur(c.AtMS), func() { r.crashWorker(c.Worker) })
			if c.DownMS > 0 {
				r.e.at(msToDur(c.AtMS+c.DownMS), func() { r.recoverWorker(c.Worker) })
			}
		}
		for _, fl := range f.Flaps {
			fl := fl
			var cycle func()
			cycle = func() {
				if r.done {
					return
				}
				r.recoverWorker(fl.Worker)
				r.e.after(msToDur(fl.UpMS), func() { r.crashWorker(fl.Worker) })
				r.e.after(msToDur(fl.PeriodMS), cycle)
			}
			r.e.at(msToDur(fl.FromMS), cycle)
		}
		for _, sp := range f.Partitions {
			sp := sp
			r.e.at(msToDur(sp.AtMS), func() { r.workers[sp.Worker].reachable = false })
			if sp.HealMS > 0 {
				r.e.at(msToDur(sp.AtMS+sp.HealMS), func() { r.workers[sp.Worker].reachable = true })
			}
		}
	}
	if r.elastic {
		// The fleet self-forms: workers announce from t=0, registrar scans
		// every lease, and the job starts one lease in, once the first scan
		// has seen the fleet — the same warm-up a real driver gets from
		// following the registrar before Setup.
		for wi := range r.workers {
			r.scheduleAnnounce(wi)
		}
		r.scheduleScan()
		r.e.at(r.lease, r.setup)
	} else {
		r.e.at(0, r.setup)
	}
}

func (r *runner) fail(err error) {
	if r.failed == nil {
		r.failed = err
	}
	r.done = true
}

func (r *runner) decide(d dist.Decision) { r.decisions = append(r.decisions, d) }

// ---- fault window transitions ----

func (r *runner) crashWorker(wi int) {
	w := r.workers[wi]
	if !w.up {
		return
	}
	w.up = false
	// A crashed process loses its partitions (restart amnesia) and resets
	// every in-flight connection.
	w.holds = make(map[int]bool)
	inflight := w.inflight
	w.inflight = nil
	for _, ic := range inflight {
		ic.abort()
	}
	if w.announceT != nil {
		w.announceT.stop()
		w.announceT = nil
	}
}

func (r *runner) recoverWorker(wi int) {
	w := r.workers[wi]
	if w.up {
		return
	}
	w.up = true
	if r.elastic {
		r.scheduleAnnounce(wi)
	}
}

// ---- the RPC model ----

// sendRPC models one driver→worker call: one-way latency out, fault
// resolution through the worker's faults.Schedule (the same schedule type
// the in-process chaos wrapper uses), service time, and the reply hop —
// bounded by deadline when one is set. cb runs exactly once.
//
// service reports the work's duration and whether it succeeds (a worker
// asked to Eval a partition it does not hold fails fast); exec applies the
// work's state change (it runs even when the driver has already given up —
// a timed-out Load may still land on the worker).
func (r *runner) sendRPC(wi int, op faults.Op, deadline time.Duration,
	service func(*simWorker) (time.Duration, bool), exec func(*simWorker), cb func(ok bool)) {
	w := r.workers[wi]
	r.m.RPCs++
	settled := false
	var deadT *timer
	settle := func(ok bool) {
		if settled {
			return
		}
		settled = true
		if deadT != nil {
			deadT.stop()
		}
		cb(ok)
	}
	if deadline > 0 {
		deadT = r.e.after(deadline, func() { settle(false) })
	}
	r.e.after(r.topo.oneWay(wi, w.rng), func() {
		if !w.up {
			// Connection refused: a fast error, one return hop later.
			r.e.after(r.topo.oneWay(wi, w.rng), func() { settle(false) })
			return
		}
		if !w.reachable {
			return // blackholed: only the caller's deadline releases it
		}
		a := w.sched.Action(op, w.calls[op])
		w.calls[op]++
		switch a.Kind {
		case faults.Hang:
			return
		case faults.CrashBefore:
			r.e.after(r.topo.oneWay(wi, w.rng), func() { settle(false) })
			return
		}
		svc, ok := service(w)
		if a.Kind == faults.Delay {
			svc += a.Delay
		}
		ic := &inflightCall{}
		ic.completeT = r.e.after(svc, func() {
			w.dropInflight(ic)
			if ok {
				exec(w)
			}
			bad := !ok
			switch a.Kind {
			case faults.CrashAfter:
				bad = true
			case faults.ShortReply, faults.CorruptReply:
				// The reply arrives malformed and driver-side validation
				// rejects it — except on Load, whose reply carries no
				// statistics to corrupt.
				if op != faults.OpLoad {
					bad = true
				}
			}
			r.e.after(r.topo.oneWay(wi, w.rng), func() { settle(!bad) })
		})
		ic.abort = func() {
			ic.completeT.stop()
			r.e.after(r.topo.oneWay(wi, w.rng), func() { settle(false) })
		}
		w.inflight = append(w.inflight, ic)
	})
}

// partBytes is the wire size of one partition.
func (r *runner) partBytes(p int) int64 {
	return int64(r.partRows[p]) * int64(r.sc.BytesPerRow)
}

// shipTime is how long one partition takes to transfer at the scenario
// bandwidth.
func (r *runner) shipTime(p int) time.Duration {
	sec := float64(r.partBytes(p)) / (r.sc.BandwidthMBps * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// sendLoad ships partition p to worker wi. reship classifies the bytes for
// the report (initial placement vs recovery traffic).
func (r *runner) sendLoad(wi, p int, deadline time.Duration, reship bool, cb func(ok bool)) {
	r.sendRPC(wi, faults.OpLoad, deadline,
		func(*simWorker) (time.Duration, bool) { return r.shipTime(p), true },
		func(w *simWorker) {
			w.holds[p] = true
			if reship {
				r.m.BytesReshipped += r.partBytes(p)
			} else {
				r.m.BytesShipped += r.partBytes(p)
			}
		},
		cb)
}

// evalServiceTime is the compute cost of one Eval of cands candidates over
// partition p on worker w.
func (r *runner) evalServiceTime(w *simWorker, p, cands int) time.Duration {
	ns := float64(cands) * float64(r.partRows[p]) * r.sc.Service.PerPairNS.Sample(w.rng) * w.slowMult
	if !r.sc.Service.TransientMult.IsZero() {
		ns *= r.sc.Service.TransientMult.Sample(w.rng)
	}
	return time.Duration(ns)
}

func (r *runner) sendEval(wi, p, cands int, cb func(ok bool)) {
	r.sendRPC(wi, faults.OpEval, r.callTimeout,
		func(w *simWorker) (time.Duration, bool) {
			if !w.holds[p] {
				// "worker holds no partition p": an immediate error reply,
				// the amnesiac-restart signature the chain reloads around.
				return 0, false
			}
			return r.evalServiceTime(w, p, cands), true
		},
		func(*simWorker) {},
		cb)
}

func (r *runner) sendPing(wi int, cb func(ok bool)) {
	r.sendRPC(wi, faults.OpPing, r.hbTimeout,
		func(*simWorker) (time.Duration, bool) { return 0, true },
		func(*simWorker) {},
		cb)
}

// ---- setup ----

// setup mirrors Cluster.Setup: partitions ship serially to their placed
// workers (k mod W statically, the membership ring elastically), failing
// over to the next live worker when a load errors.
func (r *runner) setup() {
	setupStart := r.e.now
	r.setupPart(0, setupStart)
}

func (r *runner) placeInitial(p int) int {
	if r.elastic {
		return r.ringOwner(p)
	}
	if len(r.workers) == 0 {
		return -1
	}
	return p % len(r.workers)
}

func (r *runner) setupPart(p int, setupStart time.Duration) {
	if p >= len(r.assign) {
		r.m.SetupMS = durMS(r.e.now - setupStart)
		r.setupDone = true
		r.startHeartbeat()
		r.runLevel(0)
		return
	}
	wi := r.placeInitial(p)
	if wi >= 0 && !r.alive[wi] {
		wi = dist.NextLiveWorker(r.alive, -1)
	}
	r.setupLoad(p, wi, setupStart)
}

func (r *runner) setupLoad(p, wi int, setupStart time.Duration) {
	if wi < 0 {
		if !r.elastic {
			r.fail(fmt.Errorf("sim: no live worker accepts partition %d", p))
			return
		}
		r.assign[p] = -1 // held on the driver until someone takes it
		r.setupPart(p+1, setupStart)
		return
	}
	r.sendLoad(wi, p, r.callTimeout, false, func(ok bool) {
		if ok {
			r.assign[p] = wi
			r.setupPart(p+1, setupStart)
			return
		}
		r.markDead(wi)
		r.setupLoad(p, dist.NextLiveWorker(r.alive, -1), setupStart)
	})
}

func (r *runner) markDead(wi int) {
	r.alive[wi] = false
}

// ---- level evaluation: the chain + hedge state machines ----

// chain is one evalPartitionChain in flight: evaluate on the assigned
// worker, retry in place after a reload (the amnesiac-worker path), mark
// dead and fail over, bounded by the worker count, degrading to the driver
// when the fleet is gone. It mirrors the runtime chain decision for
// decision.
type chain struct {
	p, cands  int
	avoid     int
	attempt   int
	cancelled bool
	onDone    func(winner int, ok bool)
}

func (r *runner) chainStep(ch *chain) {
	if ch.cancelled || r.done {
		return
	}
	if ch.attempt > len(r.workers) {
		if r.elastic {
			r.degrade(ch)
			return
		}
		ch.onDone(-1, false)
		return
	}
	wi := r.assign[ch.p]
	if wi >= 0 && r.alive[wi] && wi != ch.avoid {
		r.sendEval(wi, ch.p, ch.cands, func(ok bool) {
			if ch.cancelled || r.done {
				return
			}
			if ok {
				ch.onDone(wi, true)
				return
			}
			// Retry in place: reload the partition on the same worker once
			// before declaring it dead, so a restarted worker rejoins the run.
			r.m.Retries++
			r.decide(dist.Decision{Kind: dist.DecideRetryInPlace, Part: ch.p, Worker: wi, Target: -1})
			r.sendLoad(wi, ch.p, r.callTimeout, true, func(ok bool) {
				if ch.cancelled || r.done {
					return
				}
				if ok {
					r.sendEval(wi, ch.p, ch.cands, func(ok bool) {
						if ch.cancelled || r.done {
							return
						}
						if ok {
							ch.onDone(wi, true)
							return
						}
						r.markDead(wi)
						r.failoverStep(ch)
					})
					return
				}
				r.markDead(wi)
				r.failoverStep(ch)
			})
		})
		return
	}
	r.failoverStep(ch)
}

func (r *runner) failoverStep(ch *chain) {
	next := dist.NextLiveWorker(r.alive, ch.avoid)
	if next < 0 {
		if r.elastic {
			r.degrade(ch)
			return
		}
		ch.onDone(-1, false)
		return
	}
	// A hedge chain's first reroute is the hedge picking a worker other than
	// the straggler, not a failover.
	if ch.avoid < 0 || ch.attempt > 0 {
		r.m.Failovers++
		r.m.Retries++
		r.decide(dist.Decision{Kind: dist.DecideFailover, Part: ch.p, Worker: r.assign[ch.p], Target: next})
	}
	r.assign[ch.p] = next
	r.sendLoad(next, ch.p, r.callTimeout, true, func(ok bool) {
		if ch.cancelled || r.done {
			return
		}
		ch.attempt++
		if !ok {
			r.markDead(next)
		}
		r.chainStep(ch)
	})
}

// degrade evaluates the partition on the driver — same cost model, no
// straggler multiplier, no network.
func (r *runner) degrade(ch *chain) {
	r.m.Degraded++
	r.decide(dist.Decision{Kind: dist.DecideDegrade, Part: ch.p, Worker: -1, Target: -1})
	ns := float64(ch.cands) * float64(r.partRows[ch.p]) * r.sc.Service.PerPairNS.Sample(r.drng)
	r.e.after(time.Duration(ns), func() {
		if ch.cancelled || r.done {
			return
		}
		ch.onDone(-1, true)
	})
}

// hedgedEval is one evalPartitionHedged in flight: a primary chain, a
// straggler threshold watched in virtual time, at most one speculative
// duplicate chain avoiding the straggler, first well-formed result wins,
// loser cancelled whole.
type hedgedEval struct {
	r        *runner
	hc       *dist.HedgePolicy
	p, cands int
	start    time.Duration

	primary, hedge *chain
	primaryFailed  bool
	hedgedAt       time.Duration
	hedged         bool
	checkT         *timer
	finished       bool
	onDone         func(ok bool)
}

func (r *runner) startHedged(hc *dist.HedgePolicy, p, cands int, onDone func(ok bool)) {
	h := &hedgedEval{r: r, hc: hc, p: p, cands: cands, start: r.e.now, onDone: onDone}
	h.primary = &chain{p: p, cands: cands, avoid: -1, onDone: h.primaryDone}
	r.chainStep(h.primary)
	h.armCheck()
}

func (h *hedgedEval) armCheck() {
	if h.hc == nil || h.finished || h.hedge != nil {
		return
	}
	if th, ok := h.hc.Threshold(); ok {
		at := h.start + th
		if at < h.r.e.now {
			at = h.r.e.now
		}
		h.checkT = h.r.e.at(at, h.check)
	} else if h.hc.Adaptive() {
		h.checkT = h.r.e.after(simHedgeRecheck, h.check)
	}
}

func (h *hedgedEval) check() {
	if h.finished || h.hedge != nil {
		return
	}
	th, ok := h.hc.Threshold()
	if !ok || h.r.e.now-h.start < th {
		h.armCheck()
		return
	}
	straggler := h.r.assign[h.p]
	if dist.NextLiveWorker(h.r.alive, straggler) < 0 {
		// Nowhere to hedge; keep waiting on the primary.
		h.checkT = h.r.e.after(simHedgeRecheck, h.check)
		return
	}
	h.r.m.Hedges++
	h.r.decide(dist.Decision{Kind: dist.DecideHedge, Part: h.p, Worker: straggler, Target: -1})
	h.hedged = true
	h.hedgedAt = h.r.e.now
	h.hedge = &chain{p: h.p, cands: h.cands, avoid: straggler, onDone: h.hedgeDone}
	h.r.chainStep(h.hedge)
}

func (h *hedgedEval) settle(winner int, hedgeWon bool) {
	h.finished = true
	if h.checkT != nil {
		h.checkT.stop()
	}
	if h.hedged {
		// Both sides computed redundantly from the hedge launch to now;
		// that interval is the speculative waste, whoever won.
		h.r.wasted += h.r.e.now - h.hedgedAt
	}
	h.hc.Record(h.r.e.now - h.start)
	// The runtime records the winner even when it is the driver (-1, the
	// degraded path): the next level re-derives placement from there.
	h.r.assign[h.p] = winner
	if hedgeWon {
		h.r.m.HedgeWins++
		h.r.decide(dist.Decision{Kind: dist.DecideHedgeWin, Part: h.p, Worker: winner, Target: -1})
	}
	h.onDone(true)
}

func (h *hedgedEval) primaryDone(winner int, ok bool) {
	if h.finished {
		return
	}
	if ok {
		if h.hedge != nil {
			h.hedge.cancelled = true
		}
		h.settle(winner, false)
		return
	}
	if h.hedge == nil {
		h.finished = true
		if h.checkT != nil {
			h.checkT.stop()
		}
		h.onDone(false)
		return
	}
	h.primaryFailed = true
	h.primary = nil // the hedge may still succeed
}

func (h *hedgedEval) hedgeDone(winner int, ok bool) {
	if h.finished {
		return
	}
	if ok {
		if h.primary != nil {
			h.primary.cancelled = true
		}
		h.settle(winner, true)
		return
	}
	if h.primaryFailed {
		h.finished = true
		h.onDone(false)
		return
	}
	h.hedge = nil // the primary may still succeed; resume watching
	h.armCheck()
}

// runLevel fans one level's evaluation over every partition concurrently
// (one hedged state machine each) and merges at the level barrier, exactly
// like Cluster.Eval.
func (r *runner) runLevel(l int) {
	if l >= len(r.sc.Levels) {
		r.m.MakespanMS = durMS(r.e.now)
		r.done = true
		return
	}
	cands := r.sc.Levels[l]
	nParts := len(r.assign)
	hc := dist.NewHedgePolicy(
		time.Duration(r.k.HedgeAfterMS)*time.Millisecond,
		r.k.HedgeMult,
		nParts,
	)
	levelStart := r.e.now
	remaining := nParts
	for p := 0; p < nParts; p++ {
		r.startHedged(hc, p, cands, func(ok bool) {
			if r.done {
				return
			}
			if !ok {
				r.fail(fmt.Errorf("sim: level %d: partition failed on every worker", l))
				return
			}
			remaining--
			if remaining == 0 {
				r.levelDurs = append(r.levelDurs, r.e.now-levelStart)
				r.runLevel(l + 1)
			}
		})
	}
}

// ---- heartbeat ----

func (r *runner) startHeartbeat() {
	if r.hbInterval <= 0 {
		return
	}
	r.e.after(r.hbInterval, r.heartbeatTick)
}

func (r *runner) heartbeatTick() {
	if r.done {
		return
	}
	tickStart := r.e.now
	r.probeNext(0, func() {
		if r.done {
			return
		}
		next := tickStart + r.hbInterval
		if next < r.e.now {
			next = r.e.now
		}
		r.e.at(next, r.heartbeatTick)
	})
}

// probeNext pings workers sequentially in index order (the runtime's probe
// loop), applying the shared ProbeStep strike discipline to each answer.
func (r *runner) probeNext(wi int, cb func()) {
	if wi >= len(r.workers) {
		cb()
		return
	}
	r.sendPing(wi, func(ok bool) {
		newAlive, newStrikes, verdict := dist.ProbeStep(r.alive[wi], r.strikes[wi], r.k.Strikes, ok)
		r.alive[wi], r.strikes[wi] = newAlive, newStrikes
		switch verdict {
		case dist.ProbeResurrect:
			r.m.Resurrections++
			r.decide(dist.Decision{Kind: dist.DecideResurrect, Part: -1, Worker: wi, Target: -1})
		case dist.ProbeEvict:
			r.m.Evictions++
			r.decide(dist.Decision{Kind: dist.DecideEvict, Part: -1, Worker: wi, Target: -1, Strikes: newStrikes})
			moves := dist.ReshipPlan(r.assign, r.alive, wi)
			r.reshipNext(wi, moves, 0, func() { r.probeNext(wi+1, cb) })
			return
		}
		r.probeNext(wi+1, cb)
	})
}

// reshipNext applies one ReshipPlan move at a time, like reshipFrom: each
// load is bounded by the probe deadline, and a failed re-ship leaves the
// assignment for the mid-Eval failover path.
func (r *runner) reshipNext(dead int, moves [][2]int, i int, cb func()) {
	if i >= len(moves) {
		cb()
		return
	}
	p, target := moves[i][0], moves[i][1]
	r.sendLoad(target, p, r.hbTimeout, true, func(ok bool) {
		if ok {
			r.m.Reships++
			r.decide(dist.Decision{Kind: dist.DecideReship, Part: p, Worker: dead, Target: target})
			r.assign[p] = target
		}
		r.reshipNext(dead, moves, i+1, cb)
	})
}

// ---- elastic membership: announcers, registrar scans, ring rebalance ----

func (r *runner) memberID(wi int) string { return fmt.Sprintf("w%04d", wi) }

func (r *runner) scheduleAnnounce(wi int) {
	w := r.workers[wi]
	if w.announceT != nil {
		w.announceT.stop()
	}
	w.announceT = r.e.after(0, func() { r.announceSend(wi) })
}

// announceSend is one Announcer renewal: it reaches the registrar one hop
// later (when the network allows) and the worker re-announces at half the
// lease, the Announcer discipline.
func (r *runner) announceSend(wi int) {
	w := r.workers[wi]
	if !w.up || r.done {
		return
	}
	if w.reachable {
		r.e.after(r.topo.oneWay(wi, w.rng), func() { r.announceArrive(wi) })
	}
	w.announceT = r.e.after(r.lease/2, func() { r.announceSend(wi) })
}

func (r *runner) announceArrive(wi int) {
	if r.done {
		return
	}
	r.regRenewed[wi] = true
	r.regStrikes[wi] = 0
	if !r.member[wi] {
		r.member[wi] = true
		r.m.Joins++
		if !r.alive[wi] {
			if r.setupDone {
				r.m.Resurrections++
				r.decide(dist.Decision{Kind: dist.DecideResurrect, Part: -1, Worker: wi, Target: -1})
			}
			r.alive[wi] = true
			r.strikes[wi] = 0
		}
		r.viewChanged()
	}
}

func (r *runner) scheduleScan() {
	r.e.after(r.lease, r.registrarScan)
}

// registrarScan is one lease expiry sweep over the member table, the
// Registrar.Tick discipline via the shared membership.LeaseStep transition.
func (r *runner) registrarScan() {
	if r.done {
		return
	}
	changed := false
	for wi := range r.workers {
		if !r.member[wi] {
			continue
		}
		strikes, expired := membership.LeaseStep(r.regRenewed[wi], r.regStrikes[wi], r.leaseLimit)
		r.regRenewed[wi] = false
		r.regStrikes[wi] = strikes
		if expired {
			r.member[wi] = false
			r.m.Expiries++
			r.alive[wi] = false
			changed = true
		}
	}
	if changed {
		r.viewChanged()
	}
	r.scheduleScan()
}

// ringOwner maps partition p to its current ring owner's worker slot, or -1
// with no members — a membership-fleet dist.Cluster's placement.
func (r *runner) ringOwner(p int) int {
	var ids []string
	for wi := range r.workers {
		if r.member[wi] {
			ids = append(ids, r.memberID(wi))
		}
	}
	if len(ids) == 0 {
		return -1
	}
	ring := membership.BuildRing(ids, 0)
	id, ok := ring.Owner(membership.PartitionKey(r.sc.Seed, len(r.assign), p))
	if !ok {
		return -1
	}
	var wi int
	fmt.Sscanf(id, "w%04d", &wi)
	return wi
}

// viewChanged rebalances partition placement onto the new ring, one move at
// a time: warm re-attach when the new owner still holds the partition,
// otherwise a ship. A view change mid-rebalance queues one more pass.
func (r *runner) viewChanged() {
	if !r.setupDone {
		return // placement happens at setup; pre-setup churn only shapes the ring
	}
	if r.rebalancing {
		r.rebalPend = true
		return
	}
	r.rebalancing = true
	r.rebalancePart(0)
}

func (r *runner) rebalancePart(p int) {
	if r.done {
		r.rebalancing = false
		return
	}
	if p >= len(r.assign) {
		r.rebalancing = false
		if r.rebalPend {
			r.rebalPend = false
			r.viewChanged()
		}
		return
	}
	desired := r.ringOwner(p)
	cur := r.assign[p]
	if desired < 0 || desired == cur {
		r.rebalancePart(p + 1)
		return
	}
	if r.workers[desired].holds[p] {
		r.m.WarmAttaches++
		r.decide(dist.Decision{Kind: dist.DecideWarmAttach, Part: p, Worker: desired, Target: -1})
		r.assign[p] = desired
		r.rebalancePart(p + 1)
		return
	}
	r.sendLoad(desired, p, r.hbTimeout, true, func(ok bool) {
		if ok {
			r.m.Rebalances++
			r.decide(dist.Decision{Kind: dist.DecideRebalance, Part: p, Worker: cur, Target: desired})
			r.assign[p] = desired
		}
		r.rebalancePart(p + 1)
	})
}

// ---- metrics ----

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *runner) metrics() Metrics {
	m := r.m
	m.WastedHedgeMS = durMS(r.wasted)
	if len(r.levelDurs) > 0 {
		sorted := append([]time.Duration(nil), r.levelDurs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		m.LevelP50MS = durMS(percentile(sorted, 50))
		m.LevelP99MS = durMS(percentile(sorted, 99))
	}
	m.Events = r.e.nSteps
	return m
}

// percentile picks the nearest-rank percentile of an ascending slice.
func percentile(sorted []time.Duration, pct int) time.Duration {
	rank := (len(sorted)*pct + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
