package dist

import (
	"context"
	"fmt"

	"sliceline/internal/obs"
)

// distObs bundles the cluster's pre-resolved metric handles. With a nil
// registry every handle is nil and all updates are no-ops, so an unobserved
// cluster pays nothing beyond the nil checks inside the handle methods.
type distObs struct {
	evalSecs *obs.Histogram
	loadSecs *obs.Histogram
	pingSecs *obs.Histogram
	evalErrs *obs.Counter
	loadErrs *obs.Counter
	pingErrs *obs.Counter

	retries       *obs.Counter
	failovers     *obs.Counter
	hedges        *obs.Counter
	hedgeWins     *obs.Counter
	deaths        *obs.Counter
	evictions     *obs.Counter
	resurrections *obs.Counter
	reships       *obs.Counter

	joins      *obs.Counter
	leaves     *obs.Counter
	rebalances *obs.Counter
	warmAttach *obs.Counter
	degraded   *obs.Counter
	members    *obs.Gauge

	partitions *obs.Gauge

	reg *obs.Registry // for the per-slot gauges, registered as slots appear
}

func newDistObs(r *obs.Registry) distObs {
	const rpcHelp = "Latency of worker RPCs by operation."
	const errHelp = "Failed worker RPCs by operation."
	return distObs{
		evalSecs: r.Histogram(`sl_dist_rpc_seconds{op="eval"}`, rpcHelp, nil),
		loadSecs: r.Histogram(`sl_dist_rpc_seconds{op="load"}`, rpcHelp, nil),
		pingSecs: r.Histogram(`sl_dist_rpc_seconds{op="ping"}`, rpcHelp, nil),
		evalErrs: r.Counter(`sl_dist_rpc_errors_total{op="eval"}`, errHelp),
		loadErrs: r.Counter(`sl_dist_rpc_errors_total{op="load"}`, errHelp),
		pingErrs: r.Counter(`sl_dist_rpc_errors_total{op="ping"}`, errHelp),

		retries:       r.Counter("sl_dist_retries_total", "Partition evaluations retried after a failed attempt."),
		failovers:     r.Counter("sl_dist_failovers_total", "Partitions re-shipped to another worker mid-evaluation."),
		hedges:        r.Counter("sl_dist_hedges_total", "Speculative straggler re-executions launched."),
		hedgeWins:     r.Counter("sl_dist_hedge_wins_total", "Hedged re-executions that beat the primary."),
		deaths:        r.Counter("sl_dist_worker_deaths_total", "Workers declared dead after a failed call."),
		evictions:     r.Counter("sl_dist_evictions_total", "Workers evicted by the heartbeat checker."),
		resurrections: r.Counter("sl_dist_resurrections_total", "Dead workers resurrected by a successful probe."),
		reships:       r.Counter("sl_dist_reships_total", "Partitions proactively re-shipped off suspect workers."),

		joins:      r.Counter("sl_dist_member_joins_total", "Fleet members joined or rejoined via a membership view."),
		leaves:     r.Counter("sl_dist_member_leaves_total", "Fleet members departed from a membership view."),
		rebalances: r.Counter("sl_dist_rebalances_total", "Partitions moved by membership-driven rebalancing."),
		warmAttach: r.Counter("sl_dist_warm_attach_total", "Partitions re-attached to a warm rejoining worker without re-shipping."),
		degraded:   r.Counter("sl_dist_degraded_total", "Partition evaluations degraded to the driver after full fleet loss."),
		members:    r.Gauge("sl_dist_members", "Live fleet members known to the elastic cluster."),

		partitions: r.Gauge("sl_dist_partitions", "Row partitions shipped at Setup."),

		reg: r,
	}
}

// workerGauge registers the queue-depth gauge of worker slot wi; nil (inert)
// when metrics are disabled.
func (d *distObs) workerGauge(wi int) *obs.Gauge {
	return d.reg.Gauge(fmt.Sprintf(`sl_dist_worker_inflight{worker="%d"}`, wi),
		"In-flight RPCs per worker (queue depth).")
}

// svcObs bundles the worker-process-side metric handles of a Service. Like
// distObs, the zero value (nil registry) is fully inert.
type svcObs struct {
	loads        *obs.Counter
	evals        *obs.Counter
	pings        *obs.Counter
	evalSecs     *obs.Histogram
	cands        *obs.Counter
	parts        *obs.Gauge
	rows         *obs.Gauge
	evictedParts *obs.Counter
}

func newSvcObs(r *obs.Registry) svcObs {
	const rpcHelp = "RPCs served by this worker, by operation."
	return svcObs{
		loads:    r.Counter(`sl_worker_rpc_total{op="load"}`, rpcHelp),
		evals:    r.Counter(`sl_worker_rpc_total{op="eval"}`, rpcHelp),
		pings:    r.Counter(`sl_worker_rpc_total{op="ping"}`, rpcHelp),
		evalSecs: r.Histogram("sl_worker_eval_seconds", "Wall time of one Eval RPC on this worker.", nil),
		cands:    r.Counter("sl_worker_candidates_total", "Slice candidates evaluated by this worker."),
		parts:    r.Gauge("sl_worker_partitions", "Partitions currently loaded on this worker."),
		rows:     r.Gauge("sl_worker_rows", "Total rows across loaded partitions."),
		evictedParts: r.Counter("sl_worker_evicted_partitions_total",
			"Partitions dropped by the worker-side LRU cap."),
	}
}

// startSpan opens a span as a child of the context's span when one is there
// (core places its eval span in the context it hands to evaluators), falling
// back to a root span on the cluster's own tracer, and to an inert nil span
// when neither is configured.
func (c *Cluster) startSpan(ctx context.Context, name string) *obs.Span {
	if parent := obs.FromContext(ctx); parent != nil {
		return parent.Child(name)
	}
	return obs.Start(c.opts.Tracer, name)
}
