package perf

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// metricDoc documents one reported metric. EndToEnd metrics come from the
// untraced run, the others from the traced run.
type metricDoc struct {
	Name     string
	Unit     string
	EndToEnd bool
	What     string
	// Moves names, for a per-layer metric, the end-to-end metric it should
	// move and on which workload.
	Moves string
}

// metricDocs lists every metric a run reports, end-to-end metrics first, in
// the order of BENCHMARK.json. Every workload reports all of them.
var metricDocs = []metricDoc{
	{Name: "setup_s", Unit: "s", EndToEnd: true,
		What: "median over the set-ups of one run of the time to generate the inputs and bring the program up (servers, listeners, dialing, dataset registration)"},
	{Name: "op_p50_ms", Unit: "ms", EndToEnd: true,
		What: "median latency of a timed op: one RunContext call, or in serve-mixed one job from submit to its result or one append"},
	{Name: "op_p90_ms", Unit: "ms", EndToEnd: true,
		What: "90th-percentile latency of a timed op (nearest rank)"},
	{Name: "ops_per_s", Unit: "1/s", EndToEnd: true,
		What: "timed ops completed per second by all callers together"},
	{Name: "allocs_per_op", Unit: "count", EndToEnd: true,
		What: "heap allocations (runtime.MemStats.Mallocs) of the whole process during the timed phase, per op"},
	{Name: "peak_rss_mb", Unit: "MiB", EndToEnd: true,
		What: "peak resident set (VmHWM) of the workload process"},

	{Name: "frame.encode_ms", Unit: "ms",
		What:  "frame.OneHot on the workload's dataset, median of five",
		Moves: "op_p50_ms on lib-census-l2 (RunContext re-encodes on every call); negligible on lib-covtype-l3"},
	{Name: "core.run_ms", Unit: "ms",
		What:  "core.run span per enumeration",
		Moves: "op_p50_ms on every workload"},
	{Name: "core.init_ms", Unit: "ms",
		What:  "core.run − Σ core.level per enumeration: basic slices, column reduction, kernel packing, evaluator set-up, decode, significance and gap",
		Moves: "op_p50_ms on lib-census-l2, and on serve-mixed through its cold jobs"},
	{Name: "core.candgen_ms", Unit: "ms",
		What:  "Σ(core.level − core.eval) per enumeration: candidate generation, pruning and top-K",
		Moves: "op_p50_ms and allocs_per_op on lib-covtype-l3"},
	{Name: "core.eval_ms", Unit: "ms",
		What:  "Σ core.eval per enumeration: the eval kernel, or the cluster's evaluation",
		Moves: "op_p50_ms on lib-census-l2, and through the workers on dist-tcp-census-l2"},
	{Name: "core.eval_ns_per_candidate", Unit: "ns",
		What:  "Σ core.eval over the candidates evaluated at levels ≥ 2",
		Moves: "op_p50_ms on lib-census-l2"},
	{Name: "core.candgen_ns_per_candidate", Unit: "ns",
		What:  "Σ(core.level − core.eval) over the pair candidates generated at levels ≥ 2 (evaluated plus pruned)",
		Moves: "op_p50_ms on lib-covtype-l3"},
	{Name: "core.levels", Unit: "count",
		What:  "lattice levels per enumeration (Result.Levels); repeats exactly",
		Moves: "op_p50_ms on every workload"},
	{Name: "core.candidates", Unit: "count",
		What:  "candidates per enumeration, summed over levels; repeats exactly",
		Moves: "op_p50_ms on every workload"},
	{Name: "core.pruned", Unit: "count",
		What:  "pair candidates pruned before evaluation per enumeration; repeats exactly",
		Moves: "op_p50_ms and allocs_per_op on lib-covtype-l3"},
	{Name: "core.valid", Unit: "count",
		What:  "evaluated slices meeting the support and error constraints per enumeration; repeats exactly",
		Moves: "op_p50_ms on every workload"},
	{Name: "core.valid_ratio", Unit: "ratio",
		What:  "core.valid / core.candidates, the useful-work ratio",
		Moves: "op_p50_ms on every workload"},
	{Name: "core.attributed_ratio", Unit: "ratio",
		What:  "(Σ core.run + frame.encode_ms per encoding op) / Σ op latency: the share of op time the named layers explain",
		Moves: "none; it checks the attribution (≥ 0.9 on the lib workloads)"},
	{Name: "dist.setup_share", Unit: "ratio",
		What:  "Σ dist.setup (partition shipping) / Σ op latency",
		Moves: "op_p50_ms on dist-tcp-census-l2 only"},
	{Name: "dist.partition_share", Unit: "ratio",
		What:  "Σ over dist.eval of its slowest dist.partition / Σ op latency: worker time on the critical path",
		Moves: "op_p50_ms and op_p90_ms on dist-tcp-census-l2 only"},
	{Name: "dist.merge_share", Unit: "ratio",
		What:  "Σ(dist.eval − its slowest dist.partition) / Σ op latency: broadcast, merge and driver overhead",
		Moves: "op_p50_ms on dist-tcp-census-l2 only"},
	{Name: "dist.rpcs_per_op", Unit: "count",
		What:  "dist.rpc spans (load and eval) per op",
		Moves: "op_p50_ms on dist-tcp-census-l2 only"},
	{Name: "dist.bytes_out_per_op", Unit: "B",
		What:  "bytes the workers read (driver to workers) per op, from a counting listener",
		Moves: "op_p50_ms on dist-tcp-census-l2 only"},
	{Name: "dist.bytes_in_per_op", Unit: "B",
		What:  "bytes the workers wrote (workers to driver) per op, from a counting listener",
		Moves: "op_p50_ms on dist-tcp-census-l2 only"},
	{Name: "dist.retries", Unit: "count",
		What:  "sl_dist_retries_total over the traced phase; stays 0",
		Moves: "failed ops on dist-tcp-census-l2"},
	{Name: "dist.hedges", Unit: "count",
		What:  "sl_dist_hedges_total over the traced phase; stays 0",
		Moves: "failed ops on dist-tcp-census-l2"},
	{Name: "dist.failovers", Unit: "count",
		What:  "sl_dist_failovers_total over the traced phase; stays 0",
		Moves: "failed ops on dist-tcp-census-l2"},
	{Name: "server.submit_share", Unit: "ratio",
		What:  "Σ POST /v1/jobs round trip / Σ op latency",
		Moves: "ops_per_s on serve-mixed through the cache hits"},
	{Name: "server.queue_share", Unit: "ratio",
		What:  "Σ sl_server_queue_wait_seconds / Σ op latency",
		Moves: "op_p90_ms on serve-mixed"},
	{Name: "server.job_share", Unit: "ratio",
		What:  "Σ server.job span / Σ op latency: server-side execution of cold jobs",
		Moves: "op_p50_ms on serve-mixed"},
	{Name: "server.append_share", Unit: "ratio",
		What:  "Σ append latency / Σ op latency",
		Moves: "op_p50_ms on serve-mixed"},
	{Name: "server.cache_hit_ratio", Unit: "ratio",
		What:  "sl_server_cache_hits_total / (hits + misses); 1/4 by construction",
		Moves: "ops_per_s on serve-mixed"},
	{Name: "server.rejected", Unit: "count",
		What:  "sl_server_jobs_rejected_total over the traced phase; stays 0",
		Moves: "failed ops on serve-mixed"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count",
		What:  "GC cycles per op in the untraced phase of the traced run",
		Moves: "op_p50_ms and peak_rss_mb on lib-covtype-l3"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms",
		What:  "stop-the-world GC pause per op in the untraced phase of the traced run",
		Moves: "op_p50_ms and peak_rss_mb on lib-covtype-l3"},
	{Name: "trace_overhead", Unit: "ratio",
		What:  "traced op_p50 / untraced op_p50 − 1, both from the traced run",
		Moves: "none; it bounds how far the per-layer numbers are perturbed"},
}

// unitOf returns a metric's declared unit; a name missing from metricDocs is
// a bug in this package.
func unitOf(name string) string {
	for _, d := range metricDocs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic(fmt.Sprintf("perf: metric %q is not declared", name))
}

// Help writes the workload list and the metric glossary, the text behind
// `slperf -help`.
func Help(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "  %s\t%s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(tw, "\nEnd-to-end metrics (untraced run, -trace 0):")
	for _, d := range metricDocs {
		if d.EndToEnd {
			fmt.Fprintf(tw, "  %s\t%s\t%s\n", d.Name, d.Unit, d.What)
		}
	}
	fmt.Fprintln(tw, "\nPer-layer metrics (traced run, -trace 1):")
	for _, d := range metricDocs {
		if !d.EndToEnd {
			fmt.Fprintf(tw, "  %s\t%s\t%s\n", d.Name, d.Unit, d.What)
		}
	}
	fmt.Fprintln(tw, "\nWhich per-layer metric should move which end-to-end metric:")
	for _, d := range metricDocs {
		if !d.EndToEnd {
			fmt.Fprintf(tw, "  %s\t→ %s\n", d.Name, d.Moves)
		}
	}
	tw.Flush()
}
