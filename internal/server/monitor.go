package server

import (
	"encoding/json"
	"net/http"

	"sliceline/internal/core"
)

// Monitor jobs are resident: instead of passing through the worker pool once,
// each one owns a goroutine that holds a core.Incremental, re-evaluates the
// exact top-K on every newer snapshot of its dataset, and re-emits it over
// the job's SSE stream as a "result" event — until the job is cancelled or
// the server shuts down. The pool is never involved, so monitors cannot
// starve batch jobs; a separate cap (Config.MaxMonitors) bounds the
// residents.

// maxMonitors resolves the resident-monitor cap (<= 0 selects the default).
func (s *Server) maxMonitors() int {
	if s.cfg.MaxMonitors > 0 {
		return s.cfg.MaxMonitors
	}
	return DefaultMaxMonitors
}

// claimMonitorLocked reserves a resident-monitor slot, or refuses with 429
// once the cap is reached. The caller holds s.mu.
func (s *Server) claimMonitorLocked() (int, error) {
	if s.monitorCount >= s.maxMonitors() {
		return http.StatusTooManyRequests, errMonitorLimit
	}
	s.monitorCount++
	s.wg.Add(1)
	return http.StatusAccepted, nil
}

// startMonitor launches a monitor whose slot claimMonitorLocked reserved.
func (s *Server) startMonitor(j *job) {
	s.ob.monitors.Add(1)
	go s.runMonitor(j)
}

// runMonitor is one resident monitor: run the incremental evaluator on the
// job's snapshot, emit, wait for a newer generation, run it on that
// snapshot, repeat. The evaluator is owned by this goroutine; however many
// appends land between two runs, the next run folds them in as one step.
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
	inc, err := core.NewIncremental(cfg)
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}

	// The loop holds the generation it is on; the job keeps only the
	// identity it journals, so a monitor pins one generation at a time.
	snap := j.snap
	j.release()
	for {
		res, err := inc.Run(j.ctx, snap.Enc, snap.DS.Features, snap.ErrVec)
		if err != nil {
			s.finishJob(j, nil, err)
			return
		}
		js, err := json.Marshal(res)
		if err != nil {
			s.finishJob(j, nil, err)
			return
		}
		j.setRefreshed(js, snap.Gen)
		j.events.addResult(resultEvent{Generation: snap.Gen, Rows: len(snap.ErrVec), Result: js})
		s.ob.refreshes.Inc()

		// Wait for a generation beyond the one just emitted.
		for {
			cur, change := j.ds.changed()
			if cur.Gen > snap.Gen {
				snap = cur
				break
			}
			select {
			case <-change:
			case <-j.ctx.Done():
				s.finishJob(j, nil, j.ctx.Err())
				return
			}
		}
	}
}
