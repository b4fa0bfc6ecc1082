// Command slbench regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports; EXPERIMENTS.md
// records the paper-vs-measured comparison.
//
// Usage:
//
//	slbench -list
//	slbench -exp fig3a            # one experiment, quick scale
//	slbench -exp all -full        # everything at the DESIGN.md scales
//	slbench -exp table2 -seed 7
//	slbench -bench-out BENCH_2026-08-08.json   # measure the kernel suite
//
// -bench-out measures the gated eval-kernel benchmark suite (single-threaded,
// fixed seed) and writes the versioned artifact that gets committed as the
// repo's perf baseline. CI re-measures and compares with cmd/slbenchdiff.
// End-to-end workloads are measured by cmd/slperf.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sliceline/internal/bench"
	"sliceline/internal/benchfmt"
	"sliceline/internal/obs"
	"sliceline/internal/version"
)

func main() {
	var (
		exp         = flag.String("exp", "", "experiment id to run, or 'all'")
		full        = flag.Bool("full", false, "run at full (DESIGN.md) scales instead of quick scales")
		seed        = flag.Int64("seed", 1, "dataset generation seed")
		list        = flag.Bool("list", false, "list available experiments")
		spanOut     = flag.String("span-out", "", "write a JSON span dump (per-level timing breakdowns per experiment) to this file")
		benchOut    = flag.String("bench-out", "", "measure the eval-kernel benchmark suite and write the versioned JSON artifact to this file")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println("slbench", version.String())
		return
	}

	if *benchOut != "" {
		if err := writeBenchArtifact(*benchOut, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "slbench:", err)
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %-50s %s\n", e.ID, e.Title, e.Paper)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
			os.Exit(2)
		}
		return
	}

	opt := bench.Options{Quick: !*full, Seed: *seed}
	var tracer *obs.JSONTracer
	if *spanOut != "" {
		tracer = obs.NewJSONTracer()
		opt.Tracer = tracer
	}
	if strings.EqualFold(*exp, "all") {
		if err := bench.RunAll(os.Stdout, opt); err != nil {
			fmt.Fprintln(os.Stderr, "slbench:", err)
			os.Exit(1)
		}
		dumpSpans(*spanOut, tracer)
		return
	}
	e, ok := bench.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "slbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	fmt.Printf("=== %s — %s (%s) ===\n", e.ID, e.Title, e.Paper)
	if err := bench.RunOne(os.Stdout, e, opt); err != nil {
		fmt.Fprintln(os.Stderr, "slbench:", err)
		os.Exit(1)
	}
	dumpSpans(*spanOut, tracer)
}

// writeBenchArtifact measures the kernel suite and writes the committed
// benchmark artifact. Progress goes to stderr so stdout stays
// clean for scripting.
func writeBenchArtifact(path string, seed int64) error {
	fmt.Fprintf(os.Stderr, "slbench: measuring gated kernel suite (seed %d, single-threaded)...\n", seed)
	kernels, err := bench.KernelSuite(seed)
	if err != nil {
		return err
	}
	f := benchfmt.File{
		SchemaVersion: benchfmt.SchemaVersion,
		Generated:     time.Now().UTC().Format(time.RFC3339),
		Machine:       bench.MachineInfo(),
		Seed:          seed,
		Benchmarks:    kernels,
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := benchfmt.Write(out, f); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	for _, b := range f.Benchmarks {
		gate := ""
		if b.Gate {
			gate = "  [gated]"
		}
		fmt.Printf("%-32s %12.0f ns/op %8d allocs/op %12.0f rows/s%s\n",
			b.Name, b.NsPerOp, b.AllocsPerOp, b.RowsPerSec, gate)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(f.Benchmarks))
	return nil
}

// dumpSpans writes the collected span dump; a nil tracer writes nothing.
func dumpSpans(path string, tr *obs.JSONTracer) {
	if tr == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slbench:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := tr.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "slbench:", err)
		os.Exit(1)
	}
}
