// Package server implements slserve's multi-tenant slice-finding service: a
// zero-dependency HTTP/JSON front end over the core enumeration with a
// dataset registry (upload once, one-hot encode once, content-addressed by
// the core FNV data signature), an asynchronous bounded worker pool with
// admission control (full queue → 429), a result cache keyed by
// (data signature, config signature, depth cap), per-level SSE progress
// streaming, an optional gob job journal for restart/resume, and the
// sl_server_* observability families. See DESIGN.md, "HTTP service".
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/dist"
	"sliceline/internal/membership"
	"sliceline/internal/obs"
)

// Defaults for Config zero values.
const (
	DefaultPool        = 4
	DefaultQueueDepth  = 64
	DefaultMaxMonitors = 8
)

// Config configures a Server.
type Config struct {
	// Pool is the number of concurrent job executors. <= 0 selects 4.
	Pool int
	// QueueDepth bounds the number of accepted-but-not-running jobs;
	// submissions beyond it are rejected with HTTP 429. <= 0 selects 64.
	QueueDepth int
	// JobTimeout, when > 0, is the default per-job execution deadline;
	// a job spec's timeout_ms overrides it. Exceeding it fails the job
	// through the usual context-cancellation paths. Monitor jobs ignore
	// it (resident until cancelled).
	JobTimeout time.Duration
	// MaxMonitors bounds the resident monitor jobs (mode "monitor");
	// submissions beyond it are rejected with HTTP 429 and code
	// monitor_limit. <= 0 selects 8.
	MaxMonitors int
	// JournalDir, when non-empty, persists datasets, job records and
	// per-level enumeration checkpoints there, so a restarted server
	// re-serves completed jobs and resumes in-flight ones.
	JournalDir string
	// DistWorkers lists worker addresses (host:port) for distributed
	// evaluation; empty means all jobs evaluate in-process.
	DistWorkers []string
	// Dist carries the cluster runtime knobs (call timeout, hedging,
	// heartbeat) applied to every distributed job.
	Dist dist.Options
	// Membership, when non-nil, switches distributed jobs to the elastic
	// fleet: workers announce themselves to this registrar (slworker -join)
	// instead of being listed in DistWorkers, partitions are placed by
	// consistent hash of the job's data and configuration signatures, and
	// jobs survive mid-run joins, crashes, and full fleet loss (degrading to
	// driver-local evaluation). A job's fleet is one or the other: New
	// refuses a Config that sets both DistWorkers and Membership.
	Membership *membership.Registrar
	// Tracer, when non-nil, receives one span tree per job (server.job →
	// core.run → levels/evals/RPCs).
	Tracer obs.Tracer
	// Metrics, when non-nil, receives the sl_server_* families plus the
	// sl_core_*/sl_dist_* families of the runs the server executes.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = DefaultPool
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	return c
}

// Server is the slice-finding service. Create with New, mount Handler on an
// http.Server, and drain with Shutdown.
type Server struct {
	cfg     Config
	reg     *registry
	cache   *resultCache
	journal *journal
	ob      serverObs

	mu           sync.Mutex
	jobs         map[string]*job
	order        []string
	closed       bool
	queue        chan *job
	monitorCount int // resident monitors, capped by maxMonitors()

	nextID atomic.Int64
	wg     sync.WaitGroup
	distMu sync.Mutex // serializes fixed-fleet dist jobs: workers share one partition map

	// journalLogAt rate-limits the journal-write-failure log line (the
	// counter records every failure; the log fires at most once per window).
	journalLogAt atomic.Int64

	// runJob executes one job; tests substitute a controllable stub to
	// drive admission-control and cancellation paths deterministically.
	runJob func(ctx context.Context, j *job) (*core.Result, error)
}

// New builds a Server, restores the journal (when configured), and starts
// the worker pool.
func New(cfg Config) (*Server, error) {
	if len(cfg.DistWorkers) > 0 && cfg.Membership != nil {
		return nil, errors.New("server: Config sets both DistWorkers and Membership; a job's fleet is one or the other")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   newRegistry(),
		cache: newResultCache(),
		ob:    newServerObs(cfg.Metrics),
		jobs:  make(map[string]*job),
		queue: make(chan *job, cfg.QueueDepth),
	}
	s.runJob = s.runJobReal

	var restored []*journalJob
	if cfg.JournalDir != "" {
		var err error
		s.journal, err = openJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		if restored, err = s.restoreDatasetsAndLoadJobs(); err != nil {
			return nil, err
		}
	}

	s.wg.Add(cfg.Pool)
	for i := 0; i < cfg.Pool; i++ {
		go s.worker()
	}

	// Re-enqueue after the pool is running so restored backlogs larger
	// than the queue depth drain instead of deadlocking New.
	s.restoreJobs(restored)
	return s, nil
}

// restoreDatasetsAndLoadJobs replays the journal's dataset files into the
// registry — base upload first, then every journaled append batch in
// generation order through the live append path, so each restored entry
// reaches its pre-restart generation with the same signature — and loads the
// raw job records.
func (s *Server) restoreDatasetsAndLoadJobs() ([]*journalJob, error) {
	entries, err := s.journal.loadDatasets()
	if err != nil {
		return nil, err
	}
	for _, d := range entries {
		s.reg.add(d)
		recs, err := s.journal.loadAppends(d.ID)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if _, err := d.appendRows(rec.Rows, rec.Errs, time.Unix(0, rec.AtUnix)); err != nil {
				return nil, fmt.Errorf("server: replaying journaled append %d for %s: %w", rec.Gen, d.ID, err)
			}
		}
	}
	recs, maxSeq, err := s.journal.loadJobs()
	if err != nil {
		return nil, err
	}
	s.nextID.Store(maxSeq)
	return recs, nil
}

// restoreJobs rebuilds the job table from journal records, resolving each
// record's spec through newJob exactly like a fresh submission:
//
//   - a terminal record is re-served whenever its dataset is present; a done
//     result also feeds the cache when the spec still resolves to a
//     cacheable job over the generation it ran against;
//   - an unfinished record whose spec no longer resolves (its dataset or
//     baseline is gone) fails in place;
//   - an unfinished monitor restarts resident over the dataset's current
//     generation, within the monitor cap (its in-memory incremental state is
//     not journaled);
//   - any other unfinished job re-enqueues with Resume set, continuing from
//     its last completed lattice level.
func (s *Server) restoreJobs(recs []*journalJob) {
	for _, rec := range recs {
		j, _, err := s.newJob(rec.Spec)
		if err != nil {
			j = &job{spec: rec.Spec, monitor: rec.Spec.Mode == ModeMonitor, events: newEventLog(), done: make(chan struct{})}
		}
		j.id, j.cached = rec.ID, rec.Cached
		st, msg := jobState(rec.Status), rec.ErrMsg
		if !st.terminal() && err != nil {
			st, msg = jobFailed, fmt.Sprintf("restoring after restart: %v", err)
		}
		if st.terminal() {
			j.state, j.errMsg = st, msg
			if _, haveDS := s.reg.get(rec.Spec.Dataset); st == jobDone && haveDS && len(rec.ResultJSON) > 0 {
				var res core.Result
				if json.Unmarshal(rec.ResultJSON, &res) == nil {
					j.result, j.resultJSON = &res, rec.ResultJSON
					// A result pinned to an older generation is re-served by
					// id but must not answer fresh submissions (legacy
					// records carry no signature and predate appends).
					if err == nil && j.cacheable() && (rec.DataSig == 0 || rec.DataSig == j.snap.Sig) {
						s.cache.put(j.key, &res, rec.ResultJSON)
					}
					j.events.replay(res.Levels)
				}
			}
			j.events.finish(string(st), msg)
			close(j.done)
			s.addJob(j, nil)
			continue
		}
		s.startContext(j)
		if j.monitor {
			if _, err := s.addJob(j, s.claimMonitorLocked); err != nil {
				s.addJob(j, nil)
				s.finishJob(j, nil, err)
				continue
			}
			s.ob.resumed.Inc()
			s.startMonitor(j)
			continue
		}
		// The checkpoint (when one was written before the crash) carries
		// the completed levels. If the dataset advanced past the job's
		// journaled generation, the checkpoint no longer matches the data —
		// drop it and run fresh against the current generation instead.
		j.resume = rec.DataSig == 0 || rec.DataSig == j.snap.Sig
		if !j.resume {
			s.journal.dropCheckpoint(j.id)
		}
		j.enqueued = time.Now()
		s.addJob(j, nil)
		s.ob.resumed.Inc()
		s.ob.queueDepth.Add(1)
		s.queue <- j // blocking is fine: the pool is already draining
	}
}

// distCapable reports whether the server can run distributed jobs: either a
// static worker list or a membership registrar (elastic fleet) is configured.
func (s *Server) distCapable() bool {
	return len(s.cfg.DistWorkers) > 0 || s.cfg.Membership != nil
}

// registerDataset builds, registers and journals a dataset entry, returning
// its info with Reused set when the content was already present.
func (s *Server) registerDataset(d *datasetEntry) (DatasetInfo, error) {
	canonical, existed := s.reg.add(d)
	info := canonical.info()
	info.Reused = existed
	if !existed {
		s.ob.datasets.Inc()
		if err := s.journal.saveDataset(canonical); err != nil {
			return info, err
		}
	}
	return info, nil
}

// Shutdown drains the server: no new jobs are accepted (503), queued and
// running batch jobs are allowed to finish, resident monitors are cancelled
// (they would otherwise never exit), and the pool exits. If ctx expires
// first, every remaining job is cancelled and Shutdown waits for the pool
// to observe the cancellations before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	for _, j := range s.listJobs() {
		if j.monitor && !j.currentState().terminal() && j.cancel != nil {
			j.cancel()
		}
	}

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		for _, j := range s.listJobs() {
			if !j.currentState().terminal() && j.cancel != nil {
				j.cancel()
			}
		}
		<-drained
		return ctx.Err()
	}
}
