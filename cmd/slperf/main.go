// Command slperf is SliceLine's end-to-end benchmark (package internal/perf):
// it runs the workloads declared in BENCHMARK.json, checks every output and
// prints every metric by name with its unit. The last line of its output is
// one JSON object with the keys correct, attempted, failed and metrics; the
// lines before it start with "#" and record the machine, seed, op counts and
// per-class latencies.
//
// Usage:
//
//	slperf -workload lib-census-l2 -seed 1 -seconds 20 -trace 0
//	slperf -workload serve-mixed -trace 1 -span-dir spans
//	slperf                       # every workload, each in its own process
//
// -trace 0 is the untraced run that reports the end-to-end metrics; -trace 1
// is the traced run that reports the per-layer metrics. slperf exits 1 when
// a check fails, and 2 on bad flags. cmd/slperf/run.sh builds slperf from the
// checkout it runs in and runs it; it is the benchmark's command.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"syscall"

	"sliceline/internal/perf"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload; empty runs every workload, each in its own process")
		seed     = flag.Int64("seed", 1, "input seed: equal seeds give equal inputs")
		seconds  = flag.Float64("seconds", 20, "sizes the untraced run's timed phase: seconds × the workload's calibrated op rate")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spanDir  = flag.String("span-dir", "", "directory for the traced run's span dump, <workload>.json")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		usage()
		os.Exit(2)
	}
	if *workload == "" {
		os.Exit(runAll(os.Args[1:]))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := perf.Run(ctx, *workload, perf.Options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, SpanDir: *spanDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "slperf:", err)
		os.Exit(1)
	}
	in := rep.Info
	fmt.Printf("# workload=%s seed=%d trace=%v num_cpu=%d gomaxprocs=%d go=%s ops=%d setups=%d\n",
		in.Workload, in.Seed, in.Trace, in.NumCPU, in.GOMAXPROCS, in.GoVersion, in.Ops, in.Setups)
	for _, n := range in.Notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}

// runAll re-executes slperf once per workload with the same flags, so GC
// state and peak RSS do not leak between workloads, and returns the exit
// code: 1 when any workload failed.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "slperf:", err)
		return 1
	}
	code := 0
	for _, w := range perf.Workloads() {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "slperf: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "usage: slperf [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-span-dir dir]\n\n")
	flag.PrintDefaults()
	fmt.Fprintln(out)
	perf.Help(out)
	fmt.Fprintln(out, "\nEvery workload reports every metric; a layer a workload does not exercise reads 0.")
}
