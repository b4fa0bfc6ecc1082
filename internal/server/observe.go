package server

import "sliceline/internal/obs"

// serverObs bundles the pre-resolved sl_server_* metric handles. With a nil
// registry every handle is nil and all updates are no-ops, matching the
// zero-cost-off convention of internal/core and internal/dist.
type serverObs struct {
	httpReqs    *obs.Counter
	datasets    *obs.Counter
	submitted   *obs.Counter
	rejected    *obs.Counter
	done        *obs.Counter
	failed      *obs.Counter
	panicked    *obs.Counter
	cancelled   *obs.Counter
	cacheHits   *obs.Counter
	cacheMiss   *obs.Counter
	resumed     *obs.Counter
	ckDiscarded *obs.Counter
	journalErrs *obs.Counter
	appends     *obs.Counter
	refreshes   *obs.Counter
	queueDepth  *obs.Gauge
	inflight    *obs.Gauge
	monitors    *obs.Gauge
	jobSecs     *obs.Histogram
	queueSecs   *obs.Histogram
}

func newServerObs(r *obs.Registry) serverObs {
	return serverObs{
		httpReqs:  r.Counter("sl_server_http_requests_total", "HTTP requests served."),
		datasets:  r.Counter("sl_server_datasets_registered_total", "Datasets registered (excluding idempotent re-uploads)."),
		submitted: r.Counter("sl_server_jobs_submitted_total", "Jobs accepted into the queue or served from cache."),
		rejected:  r.Counter("sl_server_jobs_rejected_total", "Jobs rejected by admission control (HTTP 429)."),
		done:      r.Counter("sl_server_jobs_done_total", "Jobs completed successfully."),
		failed:    r.Counter("sl_server_jobs_failed_total", "Jobs that ended in an error."),
		panicked:  r.Counter("sl_server_jobs_panicked_total", "Jobs whose run panicked; each also ends failed."),
		cancelled: r.Counter("sl_server_jobs_cancelled_total", "Jobs cancelled via DELETE or shutdown."),
		cacheHits: r.Counter("sl_server_cache_hits_total", "Submissions served from the result cache without re-enumeration."),
		cacheMiss: r.Counter("sl_server_cache_misses_total", "Submissions that required a fresh enumeration."),
		resumed:   r.Counter("sl_server_jobs_resumed_total", "Journaled jobs re-enqueued after a server restart."),
		ckDiscarded: r.Counter("sl_server_checkpoints_discarded_total",
			"Resumed jobs whose checkpoint could not resume them; each reran from level 1."),
		journalErrs: r.Counter("sl_server_journal_errors_total",
			"Journal writes that failed (the job kept serving; the next save retries the file)."),
		appends:    r.Counter("sl_server_appends_total", "Dataset append batches applied."),
		refreshes:  r.Counter("sl_server_monitor_refreshes_total", "Monitor top-K refreshes emitted."),
		queueDepth: r.Gauge("sl_server_queue_depth", "Jobs waiting for a worker slot."),
		inflight:   r.Gauge("sl_server_inflight_jobs", "Jobs currently executing."),
		monitors:   r.Gauge("sl_server_monitor_jobs", "Resident monitor jobs currently running."),
		jobSecs:    r.Histogram("sl_server_job_seconds", "Job execution wall time (excluding queue wait).", nil),
		queueSecs:  r.Histogram("sl_server_queue_wait_seconds", "Time a job spent queued before execution.", nil),
	}
}
