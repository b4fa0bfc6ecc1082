package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/dist"
	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// jobState is a job's lifecycle position. Transitions are strictly
// queued → running → {done, failed, cancelled}, except that a queued job
// can jump straight to cancelled (DELETE before a worker picked it up) and
// a cache hit is born done.
type jobState string

// Job lifecycle states as reported in JobInfo.Status.
const (
	jobQueued    jobState = "queued"
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

func (s jobState) terminal() bool {
	return s == jobDone || s == jobFailed || s == jobCancelled
}

// errMonitorLimit rejects a monitor submission once the resident cap is
// reached (HTTP 429 with code monitor_limit).
var errMonitorLimit = errors.New("server: monitor limit reached")

// job is one slice-finding request moving through the pool — or, in monitor
// mode, resident beside it.
type job struct {
	id   string
	spec JobSpec
	// ds is the live registry entry; only monitors touch it after
	// submission (to wait for appends). Batch execution reads snap.
	ds *datasetEntry
	// snap is the dataset generation captured at submission: batch jobs
	// evaluate exactly this generation no matter what is appended
	// meanwhile, and the cache key and journal record pin its signature.
	// Its data goes once the job is terminal (release).
	snap dsSnapshot
	// baseSnap is the baseline dataset's snapshot for diff jobs: its error
	// vector supplies the baseline model's per-row errors.
	baseSnap dsSnapshot
	cfg      core.Config // resolved by newJob; hooks unset
	key      cacheKey
	useDist  bool
	monitor  bool
	resume   bool // restored from the journal: resume from the checkpoint

	// ctx is created at submission so DELETE can cancel a job that is
	// still queued; the worker hands it to the enumeration.
	ctx    context.Context
	cancel context.CancelFunc

	enqueued time.Time

	// journalMu orders this job's journal writes: each save reads the
	// job's state under it, and finishJob holds it from writing the
	// terminal record until that state is published.
	journalMu sync.Mutex

	mu         sync.Mutex
	state      jobState
	cached     bool
	resultJSON []byte
	errMsg     string
	gen        int // dataset generation resultJSON covers (monitor refreshes)

	events *eventLog
	done   chan struct{} // closed on terminal state
}

func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:      j.id,
		Dataset: j.spec.Dataset,
		Status:  string(j.state),
		Mode:    j.spec.Mode,
		Cached:  j.cached,
		Error:   j.errMsg,
	}
	if j.useDist {
		info.Evaluator = EvalDist
	} else {
		info.Evaluator = EvalLocal
	}
	// A monitor carries its latest refreshed result while still running.
	if j.state == jobDone || (j.monitor && j.resultJSON != nil) {
		info.Result = json.RawMessage(j.resultJSON)
		info.Generation = j.gen
	}
	return info
}

// setRefreshed records a monitor's latest maintained result (non-terminal).
func (j *job) setRefreshed(js []byte, gen int) {
	j.mu.Lock()
	j.resultJSON = js
	j.gen = gen
	j.mu.Unlock()
}

// release drops the job's dataset data, and a diff job's baseline data, so
// a job holds a generation only while it can still evaluate it. Every
// terminal path calls it; what stays is what the job reports and journals:
// id, spec, state, result JSON, generation and signatures. Only the job's
// own goroutine reads the data, and every other caller makes the job
// terminal before that goroutine could read it, so the write takes no lock.
func (j *job) release() {
	j.snap.genData = nil
	j.baseSnap.genData = nil
}

func (j *job) currentState() jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// localOnly reports whether a spec's workload is pinned to in-process
// evaluation: monitors (incremental maintenance), windowed runs (row
// weights), and diff runs (weighted lowering over two error vectors).
// validate rejects an explicit "dist" for all three; auto must not pick it
// either.
func localOnly(spec JobSpec) bool {
	return spec.Mode == ModeMonitor || spec.Mode == ModeDiff || spec.Window != nil
}

// jobCacheKey builds a spec's result-cache identity from its resolved
// configuration and dataset signatures. The significance level is resolved
// to the default here so an explicit 0.05 and an absent field key
// identically — they produce identical results.
func jobCacheKey(spec JobSpec, cfg core.Config, dataSig, baseSig uint64) cacheKey {
	sig := cfg.Significance
	if sig == 0 {
		sig = core.DefaultSignificance
	}
	return cacheKey{
		dataSig:  dataSig,
		cfgSig:   core.ConfigSignature(cfg),
		maxLevel: cfg.MaxLevel,
		mode:     spec.Mode,
		baseSig:  baseSig,
		sigLevel: sig,
	}
}

// newJob resolves a spec against the registry into a job that is not yet
// registered: the dataset snapshot it evaluates, the diff baseline's
// snapshot, the resolved configuration, the evaluator choice and the
// result-cache key. Submission and journal restore both build jobs here, so
// a spec means the same on either path. On failure the status is 404 (an
// unknown dataset or baseline) or 400.
func (s *Server) newJob(spec JobSpec) (*job, int, error) {
	ds, ok := s.reg.get(spec.Dataset)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("server: unknown dataset %q", spec.Dataset)
	}
	// Jobs evaluate a point-in-time snapshot: appends arriving after this
	// line do not change what this job computes.
	j := &job{
		spec:    spec,
		ds:      ds,
		snap:    ds.snapshot(),
		monitor: spec.Mode == ModeMonitor,
		state:   jobQueued,
		events:  newEventLog(),
		done:    make(chan struct{}),
	}
	rows := j.snap.DS.NumRows()

	// Diff jobs reference a second dataset for the baseline error vector; it
	// must exist and cover the same rows as the job's dataset.
	if spec.Mode == ModeDiff {
		base, ok := s.reg.get(spec.Baseline)
		if !ok {
			return nil, http.StatusNotFound, fmt.Errorf("server: unknown baseline dataset %q", spec.Baseline)
		}
		j.baseSnap = base.snapshot()
		if got := len(j.baseSnap.ErrVec); got != rows {
			return nil, http.StatusBadRequest, fmt.Errorf("server: baseline dataset %q has %d rows, job dataset %q has %d; diff requires the same rows", spec.Baseline, got, spec.Dataset, rows)
		}
	}

	if j.monitor {
		// No WithDefaults: the incremental run re-resolves σ against the
		// growing row count every generation, exactly like a batch run would.
		j.cfg = spec.Config.ToCore()
		j.state = jobRunning
	} else {
		j.cfg = spec.Config.ToCore().WithDefaults(rows)
		if spec.Mode == ModeAnytime {
			j.cfg.Budget = time.Duration(spec.BudgetMS) * time.Millisecond
		}
	}
	if err := j.cfg.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	j.key = jobCacheKey(spec, j.cfg, j.snap.Sig, j.baseSnap.Sig)
	j.useDist = spec.Evaluator == EvalDist ||
		(spec.Evaluator == EvalAuto && !localOnly(spec) && s.distCapable())
	return j, http.StatusAccepted, nil
}

// cacheable reports whether a job's result may answer later submissions.
// Windowed results are a function of wall-clock time, monitor results of a
// moving generation, anytime results of this machine's enumeration speed;
// none of them qualifies.
func (j *job) cacheable() bool {
	return j.spec.Window == nil && !j.monitor && j.spec.Mode != ModeAnytime
}

// startContext gives a job the context DELETE cancels and the enumeration
// runs under: bounded by the spec's timeout_ms, else by the server's
// JobTimeout. Monitors are resident until cancelled and get no deadline.
func (s *Server) startContext(j *job) {
	timeout := s.cfg.JobTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 && !j.monitor {
		j.ctx, j.cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}
}

// submit resolves a spec (newJob), consults the result cache, and either
// completes the job instantly (cache hit), admits it — into the queue, or as
// a resident monitor — or rejects it. The returned HTTP status is 202 on
// acceptance, 404/400/429/503 on the corresponding failures.
func (s *Server) submit(spec JobSpec) (*job, int, error) {
	j, status, err := s.newJob(spec)
	if err != nil {
		return nil, status, err
	}
	if j.useDist && !s.distCapable() {
		return nil, http.StatusBadRequest, fmt.Errorf("server: job requests distributed evaluation but the server has no workers or membership configured")
	}

	// Result cache: an identical completed run answers without touching
	// the pool (and without emitting any new core.run span).
	if j.cacheable() {
		if hit, ok := s.cache.get(j.key); ok {
			j.cached = true
			j.state = jobDone
			j.resultJSON = hit.json
			j.gen = j.snap.Gen
			j.release()
			j.events.replay(hit.res.Levels)
			j.events.finish(string(jobDone), "")
			close(j.done)
			s.addJob(j, nil)
			s.ob.submitted.Inc()
			s.ob.cacheHits.Inc()
			s.ob.done.Inc()
			// Serving beats journaling; the next save retries the file.
			s.journalFailed("cache hit", s.journal.saveJob(j))
			return j, http.StatusAccepted, nil
		}
		s.ob.cacheMiss.Inc()
	}

	// Admission control. The queue send and the closed check share s.mu
	// with Shutdown's close(s.queue), so a submission can never race a
	// drain into a send-on-closed-channel panic. Monitors bypass the queue
	// and claim a resident slot instead.
	s.startContext(j)
	status, err = s.addJob(j, func() (int, error) {
		switch {
		case s.closed:
			return http.StatusServiceUnavailable, fmt.Errorf("server: draining, not accepting jobs")
		case j.monitor:
			return s.claimMonitorLocked()
		}
		j.id = s.newJobID()
		j.enqueued = time.Now()
		select {
		case s.queue <- j:
			return http.StatusAccepted, nil
		default:
			return http.StatusTooManyRequests, fmt.Errorf("server: job queue full (%d waiting); retry later", cap(s.queue))
		}
	})
	if err != nil {
		j.cancel()
		if status == http.StatusTooManyRequests {
			s.ob.rejected.Inc()
		}
		return nil, status, err
	}
	s.ob.submitted.Inc()
	// Journaling is best-effort per write: the terminal save retries the
	// file.
	if j.monitor {
		s.journalFailed("monitor start", s.journal.saveJob(j))
		s.startMonitor(j)
	} else {
		s.ob.queueDepth.Add(1)
		s.journalFailed("enqueue", s.journal.saveJob(j))
	}
	return j, http.StatusAccepted, nil
}

func (s *Server) newJobID() string {
	return fmt.Sprintf("job-%d", s.nextID.Add(1))
}

// addJob enters a job into the job table, giving it the next id if it has
// none. admit, when non-nil, first claims the job's slot (queue or resident
// monitor) under the same lock; a refusal leaves the table untouched and
// returns admit's status and error.
func (s *Server) addJob(j *job, admit func() (int, error)) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if admit != nil {
		if status, err := admit(); err != nil {
			return status, err
		}
	}
	if j.id == "" {
		j.id = s.newJobID()
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return http.StatusAccepted, nil
}

func (s *Server) getJob(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) listJobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// cancelJob implements DELETE /v1/jobs/{id}: it cancels the job's context
// and, for still-queued jobs, finalizes immediately (the worker skips
// cancelled jobs at dequeue, so the slot is never consumed). Cancelling a
// terminal job is a no-op that reports the existing state.
func (s *Server) cancelJob(j *job) jobState {
	j.mu.Lock()
	st := j.state
	if st.terminal() {
		j.mu.Unlock()
		return st
	}
	if st == jobQueued {
		j.state = jobCancelled
		j.errMsg = "cancelled while queued"
		// The worker reads the state under j.mu before it touches the
		// data, and now skips the job.
		j.release()
		j.mu.Unlock()
		if j.cancel != nil {
			j.cancel()
		}
		j.events.finish(string(jobCancelled), "cancelled while queued")
		close(j.done)
		s.ob.cancelled.Inc()
		s.ob.queueDepth.Add(-1)
		s.journalFailed("cancel", s.journal.saveJob(j))
		return jobCancelled
	}
	// Running: cancel the context; the worker observes the enumeration
	// abort and finalizes.
	j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	return jobRunning
}

// worker is one pool goroutine: it drains the queue until Shutdown closes
// it, skipping jobs that were cancelled while queued.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		j.mu.Lock()
		if j.state != jobQueued {
			// Cancelled while waiting; its terminal state is already set.
			j.mu.Unlock()
			continue
		}
		j.state = jobRunning
		j.mu.Unlock()
		s.ob.queueDepth.Add(-1)
		s.ob.queueSecs.Observe(time.Since(j.enqueued).Seconds())
		s.runOne(j)
	}
}

// runOne executes one job and finalizes it.
func (s *Server) runOne(j *job) {
	s.ob.inflight.Add(1)
	start := time.Now()
	res, err := func() (res *core.Result, err error) {
		defer s.recoverJob(j, &err)
		return s.runJob(j.ctx, j)
	}()
	s.ob.inflight.Add(-1)
	s.ob.jobSecs.Observe(time.Since(start).Seconds())
	j.cancel()
	s.finishJob(j, res, err)
}

// recoverJob, deferred around a job's run, turns a panic into the job's
// error, so the job fails alone and the server keeps serving. The error is
// "internal error: <value>"; the stack goes to the log, and
// sl_server_jobs_panicked_total counts the panic. A kernel shard's panic,
// which matrix.ParallelFor re-raises as a *matrix.WorkerPanic, reports the
// shard's value and stack.
func (s *Server) recoverJob(j *job, err *error) {
	v := recover()
	if v == nil {
		return
	}
	stack := debug.Stack()
	if wp, ok := v.(*matrix.WorkerPanic); ok {
		v, stack = wp.Value, wp.Stack
	}
	s.ob.panicked.Inc()
	log.Printf("server: job %s panicked: %v\n%s", j.id, v, stack)
	*err = fmt.Errorf("internal error: %v", v)
}

// finishJob journals a job's terminal state, then records it and feeds the
// result cache.
func (s *Server) finishJob(j *job, res *core.Result, err error) {
	var (
		st  jobState
		msg string
	)
	switch {
	case err == nil:
		st = jobDone
	case errors.Is(err, context.Canceled):
		st, msg = jobCancelled, "cancelled"
		s.ob.cancelled.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		st, msg = jobFailed, "deadline exceeded: "+err.Error()
		s.ob.failed.Inc()
	default:
		st, msg = jobFailed, err.Error()
		s.ob.failed.Inc()
	}

	var js []byte
	if st == jobDone {
		var merr error
		js, merr = json.Marshal(res)
		if merr != nil {
			st, msg = jobFailed, "encoding result: "+merr.Error()
			s.ob.failed.Inc()
		}
	}

	// Journal the terminal record before publishing it: a client that saw
	// the job finish can rely on a restart restoring it finished, and an
	// earlier save (the enqueue one) cannot land after it.
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	s.journalFailed("finish", s.journal.writeJob(j, st, msg, js))

	j.mu.Lock()
	j.state = st
	j.errMsg = msg
	if st == jobDone {
		j.resultJSON = js
		j.gen = j.snap.Gen
	}
	j.mu.Unlock()
	j.release()

	if st == jobDone {
		if j.cacheable() {
			s.cache.put(j.key, res, js)
		}
		s.ob.done.Inc()
		s.journal.dropCheckpoint(j.id)
	}
	j.events.finish(string(st), msg)
	close(j.done)
}

// journalErrorLogWindow spaces journal-failure log lines: a dead disk fails
// every write, and one line per window tells the story as well as thousands.
const journalErrorLogWindow = 10 * time.Second

// journalFailed records a failed journal write: every failure increments
// sl_server_journal_errors_total, and at most one log line per window names
// the failing site. A nil error is a no-op, so call sites stay one line.
func (s *Server) journalFailed(site string, err error) {
	if err == nil {
		return
	}
	s.ob.journalErrs.Inc()
	now := time.Now().UnixNano()
	last := s.journalLogAt.Load()
	if now-last >= int64(journalErrorLogWindow) && s.journalLogAt.CompareAndSwap(last, now) {
		log.Printf("server: journal write failed (%s): %v", site, err)
	}
}

// runJobReal is the production job runner (Server.runJob): it wires the
// job's event log, checkpoint path, observability and evaluator into the
// core enumeration. Distributed jobs on the fixed fleet serialize on distMu
// because TCP workers key partitions by id in one shared map and a fixed
// fleet's keys are bare indices — two concurrent clusters would overwrite
// each other's shipped partitions.
func (s *Server) runJobReal(ctx context.Context, j *job) (*core.Result, error) {
	cfg := j.cfg
	cfg.Tracer = s.cfg.Tracer
	cfg.Metrics = s.cfg.Metrics
	cfg.OnLevel = j.events.addLevel
	if s.journal != nil {
		cfg.CheckpointPath = s.journal.checkpointPath(j.id)
		cfg.Resume = j.resume
	}
	// A diff job runs two enumerations (regressions, improvements) that
	// would share one checkpoint file, so core.RunDiff refuses a checkpoint
	// path (ErrDiffCheckpoint): diff jobs run checkpoint-free and restart
	// from scratch after a crash.
	if j.spec.Mode == ModeDiff {
		cfg.CheckpointPath = ""
		cfg.Resume = false
	}
	// Anytime jobs stream their improving top-K and certified gap over the
	// job's event log after every completed level.
	if j.spec.Mode == ModeAnytime {
		events := j.events
		cfg.OnSnapshot = func(snap core.Snapshot) {
			topK, err := json.Marshal(snap.TopK)
			if err != nil {
				return
			}
			events.addSnapshot(snapshotEvent{
				Level:     snap.Level,
				Gap:       snap.Gap,
				ElapsedMS: snap.Elapsed.Milliseconds(),
				TopK:      topK,
			})
		}
	}

	// One span tree per job: the job span carries the context into the
	// enumeration, so core.run (and through it every level, eval and RPC
	// span) parents under it.
	sp := obs.Start(s.cfg.Tracer, "server.job")
	sp.SetStr("job", j.id)
	sp.SetStr("dataset", j.snap.ID)
	sp.SetBool("dist", j.useDist)
	sp.SetBool("resume", j.resume)
	defer sp.End()
	ctx = obs.ContextWith(ctx, sp)

	if j.useDist {
		opts := s.cfg.Dist
		opts.Tracer = s.cfg.Tracer
		opts.Metrics = s.cfg.Metrics
		var cluster *dist.Cluster
		var err error
		if s.cfg.Membership != nil {
			// Membership fleet: partition keys are content-addressed by
			// what the job ships — core hands the evaluator the columns
			// that clear the resolved σ, so the seed is the job's data
			// signature together with its configuration signature.
			// Concurrent jobs on shared workers cannot collide, and a
			// partition shipped for another generation or σ can never
			// answer for this job.
			opts.PlacementSeed = core.CombineSignatures(j.key.dataSig, j.key.cfgSig)
			cluster, err = dist.NewElasticCluster(dist.MemberDialer(dist.DialOptions{}), opts)
		} else {
			// Fixed fleet: bare partition keys would collide on the shared
			// workers, so these jobs run one at a time.
			s.distMu.Lock()
			defer s.distMu.Unlock()
			cluster, err = dist.DialCluster(s.cfg.DistWorkers, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("server: building cluster: %w", err)
		}
		defer cluster.Close()
		// A membership fleet follows the registrar for the job's duration,
		// so members that join, crash, or flap mid-run are absorbed by
		// rebalancing; a fixed fleet has no view to follow.
		defer cluster.Follow(ctx, s.cfg.Membership)()
		cfg.Evaluator = cluster
	}
	if j.spec.Mode == ModeDiff {
		return core.RunDiff(ctx, j.snap.Enc, j.snap.DS.Features, j.baseSnap.ErrVec, j.snap.ErrVec, cfg)
	}
	var w []float64
	if j.spec.Window != nil {
		var err error
		if w, err = windowWeights(j.snap, j.spec.Window, time.Now()); err != nil {
			return nil, err
		}
	}
	return core.Run(ctx, j.snap.Enc, j.snap.DS.Features, j.snap.ErrVec, w, cfg)
}

// windowWeights turns a WindowSpec into a 0/1 row-weight vector over the
// snapshot: rows outside the window weigh zero, so the weighted run computes
// "worst slices over the recent rows" — bit-identical to running on the
// suffix alone, because zero-weight rows contribute exact +0.0 terms to every
// aggregate. Duration bounds resolve at append-batch granularity: generation
// g's rows arrived at snap.GenAt[g] and occupy [GenEnd[g-1], GenEnd[g]).
func windowWeights(snap dsSnapshot, w *WindowSpec, now time.Time) ([]float64, error) {
	n := snap.DS.NumRows()
	lo := 0
	if w.LastRows > 0 && n-w.LastRows > lo {
		lo = n - w.LastRows
	}
	if w.LastMS > 0 {
		cutoff := now.Add(-time.Duration(w.LastMS) * time.Millisecond)
		tlo := n // nothing recent enough until proven otherwise
		for g := len(snap.GenAt) - 1; g >= 0; g-- {
			if snap.GenAt[g].Before(cutoff) {
				break
			}
			if g == 0 {
				tlo = 0
			} else {
				tlo = snap.GenEnd[g-1]
			}
		}
		if tlo > lo {
			lo = tlo
		}
	}
	if lo >= n {
		return nil, fmt.Errorf("server: window selects no rows (dataset has %d, all older than the window)", n)
	}
	weights := make([]float64, n)
	for i := lo; i < n; i++ {
		weights[i] = 1
	}
	return weights, nil
}
