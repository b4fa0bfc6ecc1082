package perf

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"sliceline/internal/frame"
	"sliceline/internal/obs"
)

// runTraced measures the per-layer metrics: a fixed number of rounds per
// caller untraced, then the same again on a fresh session that reports into
// a span collector, a metrics registry and the byte counters.
func runTraced(ctx context.Context, w Workload, o Options, rep *Report) error {
	rounds := o.rounds
	if rounds <= 0 {
		rounds = w.traceRounds
	}
	plain, _, err := tracePhase(ctx, w, o, instrument{}, rounds, rep)
	if err != nil {
		return err
	}
	in := instrument{spans: obs.NewJSONTracer(), metrics: obs.NewRegistry(), bytes: &byteCounter{}}
	traced, enc, err := tracePhase(ctx, w, o, in, rounds, rep)
	if err != nil {
		return err
	}
	rep.Info.Ops, rep.Info.Setups = len(traced.samples), 2
	if o.SpanDir != "" {
		if err := writeSpans(o.SpanDir, w.Name, in.spans); err != nil {
			return fmt.Errorf("writing span dump: %w", err)
		}
	}
	layers(rep, w, plain.phase, traced, enc)
	return nil
}

// tracedPhase is a phase together with what the instrument recorded in it.
type tracedPhase struct {
	phase
	spans []*obs.Span
	reg   map[string]float64 // registry readings, deltas over the phase
	bytes byteCounts         // deltas over the phase
}

// tracePhase brings up a session, runs rounds rounds per caller on it and
// tears it down. It also times frame.encode on the session's dataset.
func tracePhase(ctx context.Context, w Workload, o Options, in instrument, rounds int, rep *Report) (tracedPhase, time.Duration, error) {
	s, err := w.start(ctx, o, in)
	if err != nil {
		return tracedPhase{}, 0, fmt.Errorf("set-up: %w", err)
	}
	tp, enc, err := measureTraced(ctx, s, in, rounds, rep)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return tp, enc, err
}

// measureTraced warms s up, runs the rounds and verifies. Everything the
// instrument recorded during the warm-up is discarded.
func measureTraced(ctx context.Context, s session, in instrument, rounds int, rep *Report) (tracedPhase, time.Duration, error) {
	if err := s.warmup(ctx); err != nil {
		return tracedPhase{}, 0, fmt.Errorf("warm-up: %w", err)
	}
	if in.spans != nil {
		in.spans.Reset()
	}
	reg0, bytes0 := readRegistry(in.metrics), in.bytes.read()
	tp := tracedPhase{phase: runPhase(ctx, s.callers(), rounds)}
	reg1, bytes1 := readRegistry(in.metrics), in.bytes.read()
	label := "untraced"
	if in.spans != nil {
		tp.spans = in.spans.Spans()
		label = "traced"
	}
	tp.phase.report(rep, label)
	rep.count(s.verify(ctx)...)
	tp.reg = make(map[string]float64, len(reg1))
	for k, v := range reg1 {
		tp.reg[k] = v - reg0[k]
	}
	tp.bytes = byteCounts{toWorkers: bytes1.toWorkers - bytes0.toWorkers, fromWorkers: bytes1.fromWorkers - bytes0.fromWorkers}
	enc, err := encodeTime(s.dataset())
	return tp, enc, err
}

// encodeTime is the median of five frame.OneHot calls on ds.
func encodeTime(ds *frame.Dataset) (time.Duration, error) {
	d := make([]time.Duration, 5)
	for i := range d {
		t := time.Now()
		if _, err := frame.OneHot(ds); err != nil {
			return 0, fmt.Errorf("encoding: %w", err)
		}
		d[i] = time.Since(t)
	}
	return percentile(d, 0.5), nil
}

// Registry readings the per-layer metrics use: counters and histogram sums
// of the sl_dist_* and sl_server_* families.
var (
	registryCounters = []string{
		"sl_dist_retries_total", "sl_dist_hedges_total", "sl_dist_failovers_total",
		"sl_server_jobs_rejected_total", "sl_server_cache_hits_total", "sl_server_cache_misses_total",
	}
	registryHistogramSums = []string{"sl_server_queue_wait_seconds"}
)

// readRegistry reads the counters and histogram sums above; a nil registry
// reads all zeros.
func readRegistry(r *obs.Registry) map[string]float64 {
	out := make(map[string]float64, len(registryCounters)+len(registryHistogramSums))
	for _, name := range registryCounters {
		out[name] = float64(r.Counter(name, "").Value())
	}
	for _, name := range registryHistogramSums {
		out[name] = r.Histogram(name, "", nil).Sum()
	}
	return out
}

// spanTotals sums the self times the per-layer metrics derive from the spans
// the program emits.
type spanTotals struct {
	runs                 int
	run, level, eval     time.Duration
	distSetup            time.Duration
	distSlowest, distRes time.Duration // slowest partition per dist.eval, and the rest of dist.eval
	rpcs                 int
	serverJob            time.Duration
}

func sumSpans(spans []*obs.Span) spanTotals {
	children := make(map[uint64][]*obs.Span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var t spanTotals
	for _, s := range spans {
		switch s.Name {
		case "core.run":
			t.runs++
			t.run += s.Dur
		case "core.level":
			t.level += s.Dur
		case "core.eval":
			t.eval += s.Dur
		case "dist.setup":
			t.distSetup += s.Dur
		case "dist.eval":
			var slowest time.Duration
			for _, c := range children[s.ID] {
				if c.Name == "dist.partition" && c.Dur > slowest {
					slowest = c.Dur
				}
			}
			t.distSlowest += slowest
			t.distRes += s.Dur - slowest
		case "dist.rpc":
			t.rpcs++
		case "server.job":
			t.serverJob += s.Dur
		}
	}
	return t
}

// layers sets the per-layer metrics from the untraced and traced phases of a
// traced run; enc is the frame.encode time.
func layers(rep *Report, w Workload, plain phase, traced tracedPhase, enc time.Duration) {
	t := sumSpans(traced.spans)
	ops := float64(len(traced.samples))
	var opTotal, submit, appends time.Duration
	var runs, levels, cands, pruned, valid, evalCands, genCands float64
	for _, s := range traced.samples {
		opTotal += s.dur
		submit += s.submit
		if s.class == "append" {
			appends += s.dur
		}
		if s.res == nil {
			continue
		}
		runs++
		levels += float64(len(s.res.Levels))
		for _, l := range s.res.Levels {
			cands += float64(l.Candidates)
			pruned += float64(l.Pruned)
			valid += float64(l.Valid)
			if l.Level >= 2 {
				evalCands += float64(l.Candidates)
				genCands += float64(l.Candidates + l.Pruned)
			}
		}
	}
	perRun := func(d time.Duration) float64 { return ratio(ms(d), float64(t.runs)) }
	share := func(d time.Duration) float64 { return ratio(float64(d), float64(opTotal)) }
	candgen := t.level - t.eval
	encoded := time.Duration(0)
	if w.encodes {
		encoded = enc * time.Duration(len(traced.samples))
	}

	rep.set("frame.encode_ms", ms(enc))
	rep.set("core.run_ms", perRun(t.run))
	rep.set("core.init_ms", perRun(t.run-t.level))
	rep.set("core.candgen_ms", perRun(candgen))
	rep.set("core.eval_ms", perRun(t.eval))
	rep.set("core.eval_ns_per_candidate", ratio(float64(t.eval), evalCands))
	rep.set("core.candgen_ns_per_candidate", ratio(float64(candgen), genCands))
	rep.set("core.levels", ratio(levels, runs))
	rep.set("core.candidates", ratio(cands, runs))
	rep.set("core.pruned", ratio(pruned, runs))
	rep.set("core.valid", ratio(valid, runs))
	rep.set("core.valid_ratio", ratio(valid, cands))
	rep.set("core.attributed_ratio", share(t.run+encoded))

	rep.set("dist.setup_share", share(t.distSetup))
	rep.set("dist.partition_share", share(t.distSlowest))
	rep.set("dist.merge_share", share(t.distRes))
	rep.set("dist.rpcs_per_op", ratio(float64(t.rpcs), ops))
	rep.set("dist.bytes_out_per_op", ratio(float64(traced.bytes.toWorkers), ops))
	rep.set("dist.bytes_in_per_op", ratio(float64(traced.bytes.fromWorkers), ops))
	rep.set("dist.retries", traced.reg["sl_dist_retries_total"])
	rep.set("dist.hedges", traced.reg["sl_dist_hedges_total"])
	rep.set("dist.failovers", traced.reg["sl_dist_failovers_total"])

	hits, misses := traced.reg["sl_server_cache_hits_total"], traced.reg["sl_server_cache_misses_total"]
	rep.set("server.submit_share", share(submit))
	rep.set("server.queue_share", share(time.Duration(traced.reg["sl_server_queue_wait_seconds"]*float64(time.Second))))
	rep.set("server.job_share", share(t.serverJob))
	rep.set("server.append_share", share(appends))
	rep.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	rep.set("server.rejected", traced.reg["sl_server_jobs_rejected_total"])

	plainOps := float64(len(plain.samples))
	rep.set("runtime.gc_cycles_per_op", ratio(float64(plain.gcCycles), plainOps))
	rep.set("runtime.gc_pause_ms_per_op", ratio(ms(plain.gcPause), plainOps))
	rep.set("trace_overhead", ratio(float64(percentile(traced.durations(), 0.5)), float64(percentile(plain.durations(), 0.5)))-1)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// byteCounter counts the bytes crossing the workers' sockets.
type byteCounter struct {
	toWorkers, fromWorkers atomic.Int64
}

type byteCounts struct{ toWorkers, fromWorkers int64 }

// read returns the counts so far; a nil counter reads zeros.
func (c *byteCounter) read() byteCounts {
	if c == nil {
		return byteCounts{}
	}
	return byteCounts{toWorkers: c.toWorkers.Load(), fromWorkers: c.fromWorkers.Load()}
}

// countingListener wraps a worker's listener so every accepted connection
// counts what the worker reads (driver to worker) and writes (worker to
// driver).
type countingListener struct {
	net.Listener
	c *byteCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *byteCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.toWorkers.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.fromWorkers.Add(int64(n))
	return n, err
}
