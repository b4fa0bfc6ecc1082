// Package perf is SliceLine's end-to-end benchmark. It drives the system only
// from outside — sliceline.RunContext with its WithEvaluator, WithTracer and
// WithMetrics hooks, a Dist-PFor cluster (dist.NewServer, dist.Dial,
// dist.NewClusterOpts) over loopback TCP, and slserve's HTTP API
// (server.New(...).Handler() behind a real net/http listener) — checks every
// output, and reports end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run. cmd/slperf is its command line;
// BENCHMARK.json at the repository root declares the workloads and metrics.
//
// # Workloads
//
//   - lib-census-l2: USCensus stand-in, 20,000 rows, l=378, MaxLevel 2, K=4;
//     one caller, one sliceline.RunContext per op. Most of the time is in the
//     eval kernel, so a multicore or bitset-kernel change shows here and
//     barely moves lib-covtype-l3.
//   - lib-covtype-l3: Covtype stand-in, 10,000 rows, l=188, MaxLevel 3
//     (188 → 16.5k → 109k candidates); one caller. Most of the time is
//     candidate generation, pruning and top-K at ≈9.6M allocations per op and
//     independent of rows, so this workload isolates an allocation diet and
//     barely exercises the kernel.
//   - dist-tcp-census-l2: the lib-census-l2 input and config, evaluated via
//     WithEvaluator on a dist.Cluster over two in-process dist.Servers on
//     127.0.0.1. The cluster is dialed once; every op re-ships the partitions
//     in Setup. RPC, gob encoding and partition shipping show only here, so
//     the lib/dist pair isolates driver/worker overhead.
//   - serve-mixed: slserve in-process (Pool 2) with two clients, each owning
//     one Adult stand-in (32,561 rows) registered via JSON in set-up. Each
//     client runs rounds of eight batch jobs — the six configs K∈{4,8} ×
//     α∈{0.9,0.95,0.99} in seeded order, two of them repeated later in the
//     round — each waited to its terminal SSE event, then appends 64 rows to
//     its dataset. Every append bumps the dataset generation and turns the
//     next round's jobs cold, so exactly one job in four is a cache hit. It
//     is the only workload that exercises HTTP, admission, the result cache
//     and registry generations.
//
// No workload is encode-heavy: the frame layer is measured as
// frame.encode_ms but not stressed.
//
// # Load model and run length
//
// Each workload runs in its own process (cmd/slperf re-execs itself when it
// runs them all), so GC state and peak RSS do not leak between workloads.
// Load comes from closed-loop callers — one for the lib and dist workloads,
// one per client for serve-mixed — each sending its next request only after
// the previous one completed, over at most one connection per server. An
// untraced run sets up five times (set-up time is the median), runs one
// untimed warm-up op (none in serve-mixed, where the cold cache is part of the
// workload), then times a fixed number of rounds per caller: -seconds × the
// workload's rate — 7 ops per second for lib-census-l2, 0.7 for
// lib-covtype-l3, 5 for dist-tcp-census-l2 and one nine-request round per
// client for serve-mixed, the rates of the machine the benchmark was defined
// on. A timed phase lasts about -seconds there, and both commits of a
// comparison do the same work. That matters for serve-mixed, whose server
// keeps the appended generations of a dataset in its append log, so memory
// grows with the rounds run. A traced run instead runs a fixed small number
// of rounds per caller, twice: untraced, then traced.
//
// # Inputs and seeds
//
// Inputs come from internal/datagen with fixed generator seeds; the -seed
// flag permutes the rows (and, through first-appearance recoding of the
// serve-mixed CSV uploads, the category codes). SliceLine's output is
// invariant under both, so a seed changes every input the program sees but
// not how much work an op does: candidate, pruning and validity counts repeat
// exactly across seeds, and so does the work behind each timing.
//
// # Correctness
//
// Every lib op must return a result bit-identical to the warm-up op's
// (predicates, score, size, errors, p- and q-values, level counts). Every
// dist op must be bit-identical to a local RunContext reference — the "any
// fleet size ≡ one member" contract. In serve-mixed a cache hit must equal
// the cold result of the same (generation, config) and carry the server's
// cached flag; after the timed phase up to six cold results are re-derived
// with RunContext on the clients' local mirrors of their rows. A mismatch
// marks the run incorrect, a failed, refused or rejected request counts as
// failed, and either makes cmd/slperf exit 1.
//
// # Metrics
//
// Help (`slperf -help`) prints every metric with its unit and meaning, and
// for each per-layer metric the end-to-end metric it should move on which
// workload. In short: the untraced run reports setup_s, op_p50_ms,
// op_p90_ms, ops_per_s, allocs_per_op and peak_rss_mb. The traced run
// reports self times per enumeration derived from the spans the program
// already emits (core.run, core.level, core.eval, dist.setup, dist.eval,
// dist.partition, dist.rpc, server.job) — core.init_ms = core.run − Σ
// core.level, core.candgen_ms = Σ(core.level − core.eval), core.eval_ms = Σ
// core.eval — plus the sl_dist_* and sl_server_* registries, the bytes a
// counting listener sees on the workers' sockets, Go runtime GC counts, and
// trace_overhead, the traced op_p50 over the untraced one minus 1. Every
// workload reports every metric, and a layer a workload does not exercise
// reads 0. Dist and server times are therefore reported as shares of op
// time: no time metric reads a constant 0 on the workloads that bypass
// those layers.
//
// # Noise
//
// On the 2-vCPU virtual machine (Intel Xeon, 2.1 GHz) the benchmark was
// defined on, a pure ALU loop kept its speed within 2% while these
// memory-heavy ops drifted by 10–20% between periods lasting about a minute,
// with CPU time per op drifting alike. Ten 20-second runs with different
// seeds therefore spread by up to a fifth between their quartiles in the
// timing metrics, which is why BENCHMARK.json bounds them by 25%; counts and
// allocations per op repeat to within 0.1%.
package perf
