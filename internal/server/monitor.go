package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"sliceline/internal/core"
)

// Monitor jobs are resident: instead of passing through the worker pool once,
// each one owns a goroutine that holds a core.Incremental over its dataset,
// re-evaluates the exact top-K after every append, and re-emits it over the
// job's SSE stream as a "result" event — until the job is cancelled or the
// server shuts down. The pool is never involved, so monitors cannot starve
// batch jobs; a separate cap (Config.MaxMonitors) bounds the residents.

// submitMonitor admits one monitor job, bypassing the queue. The spec was
// already validated (monitor mode excludes dist/priority/window), so
// the incremental evaluator's own rejections cannot fire for an admitted job.
func (s *Server) submitMonitor(spec JobSpec, ds *datasetEntry, snap dsSnapshot) (*job, int, error) {
	// No WithDefaults: the incremental run re-resolves σ against the
	// growing row count every generation, exactly like a batch run would.
	cfg := spec.Config.ToCore()
	if err := cfg.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	j := &job{
		spec:    spec,
		ds:      ds,
		snap:    snap,
		cfg:     cfg,
		monitor: true,
		state:   jobRunning,
		events:  newEventLog(),
		done:    make(chan struct{}),
	}
	// No timeout: monitors are resident until cancelled (TimeoutMS is
	// documented as ignored for them).
	j.ctx, j.cancel = context.WithCancel(context.Background())

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.cancel()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server: draining, not accepting jobs")
	}
	if s.monitorCount >= s.maxMonitors() {
		s.mu.Unlock()
		j.cancel()
		s.ob.rejected.Inc()
		return nil, http.StatusTooManyRequests, errMonitorLimit
	}
	s.monitorCount++
	j.id = s.newJobID()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.wg.Add(1)
	s.mu.Unlock()

	s.ob.submitted.Inc()
	s.ob.monitors.Add(1)
	s.journalFailed("monitor start", s.journal.saveJob(j))
	go s.runMonitor(j)
	return j, http.StatusAccepted, nil
}

// maxMonitors resolves the resident-monitor cap (<= 0 selects the default).
func (s *Server) maxMonitors() int {
	if s.cfg.MaxMonitors > 0 {
		return s.cfg.MaxMonitors
	}
	return DefaultMaxMonitors
}

// runMonitor is one resident monitor: evaluate, emit, wait for the next
// generation, fold it in, repeat. The incremental evaluator is owned by this
// goroutine; appends are folded in as deltas via the dataset's bounded append
// log, falling back to a full rebuild from the current snapshot when the log
// has evicted a needed record.
func (s *Server) runMonitor(j *job) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.monitorCount--
		s.mu.Unlock()
		s.ob.monitors.Add(-1)
	}()

	cfg := j.cfg
	cfg.Tracer = s.cfg.Tracer
	cfg.Metrics = s.cfg.Metrics
	cfg.OnLevel = j.events.addLevel

	inc, err := core.NewIncremental(j.snap.Enc, j.snap.DS.Features, j.snap.ErrVec, cfg)
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}
	gen := j.snap.Gen // dataset generation the evaluator currently holds

	for {
		res, err := inc.Run(j.ctx)
		if err != nil {
			s.finishJob(j, nil, err)
			return
		}
		js, err := json.Marshal(res)
		if err != nil {
			s.finishJob(j, nil, err)
			return
		}
		j.setRefreshed(res, js, gen)
		j.events.addResult(resultEvent{Generation: gen, Rows: inc.Rows(), Result: js})
		s.ob.refreshes.Inc()

		// Wait for a generation beyond the one just emitted.
		for {
			cur, change := j.ds.changed()
			if cur.Gen > gen {
				break
			}
			select {
			case <-change:
			case <-j.ctx.Done():
				s.finishJob(j, nil, j.ctx.Err())
				return
			}
		}

		// Delta path: replay the append records for (gen, current]. The
		// snapshot is taken AFTER appendsSince, so its error vector covers
		// every returned record's row range.
		recs, ok := j.ds.appendsSince(gen)
		cur := j.ds.snapshot()
		if ok {
			for _, rec := range recs {
				if aerr := inc.Append(rec.Res, cur.ErrVec[rec.Start:rec.End]); aerr != nil {
					ok = false
					break
				}
				gen = rec.Gen
			}
		}
		if !ok {
			// The bounded log evicted a needed record (or a delta failed
			// to apply): rebuild from the current snapshot. The memo is
			// lost but correctness is not — the next Run scans fresh.
			inc, err = core.NewIncremental(cur.Enc, cur.DS.Features, cur.ErrVec, cfg)
			if err != nil {
				s.finishJob(j, nil, err)
				return
			}
			gen = cur.Gen
		}
	}
}
