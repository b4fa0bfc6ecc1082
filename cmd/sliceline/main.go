// Command sliceline finds the top-K problematic data slices of an ML model.
// It either loads a CSV (training a model on it to derive the error vector)
// or generates one of the built-in synthetic datasets, then runs the
// SliceLine enumeration and prints the top-K slices.
//
// Usage:
//
//	sliceline -dataset adult -k 5 -alpha 0.95 -maxlevel 3
//	sliceline -csv data.csv -label y -task reg -k 4
//	sliceline -dataset uscensus -workers localhost:7071,localhost:7072
//	sliceline -dataset uscensus -budget 2s -progress   # anytime, prints gap
//
// Long enumerations can checkpoint after every lattice level and resume
// after a crash with byte-identical results:
//
//	sliceline -dataset uscensus -checkpoint run.ck        # killed mid-run
//	sliceline -dataset uscensus -checkpoint run.ck -resume
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"sliceline/internal/core"
	"sliceline/internal/datagen"
	"sliceline/internal/dist"
	"sliceline/internal/frame"
	"sliceline/internal/ml"
	"sliceline/internal/obs"
	"sliceline/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sliceline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset  = fs.String("dataset", "", "synthetic dataset: salaries|adult|covtype|kdd98|uscensus|criteo")
		rows     = fs.Int("rows", 0, "synthetic row count (0 = dataset default)")
		csvPath  = fs.String("csv", "", "CSV file to load instead of a synthetic dataset")
		label    = fs.String("label", "", "label column name for -csv")
		task     = fs.String("task", "class", "model for -csv: class (mlogit) or reg (linear)")
		bins     = fs.Int("bins", 10, "equi-width bins for continuous features")
		k        = fs.Int("k", 4, "top-K slices")
		alpha    = fs.Float64("alpha", 0.95, "error/size weight in (0,1]")
		sigma    = fs.Int("sigma", 0, "minimum support (0 = max(32, n/100))")
		maxLevel = fs.Int("maxlevel", 0, "maximum lattice level (0 = unbounded)")
		seed     = fs.Int64("seed", 1, "synthetic dataset seed")
		workers  = fs.String("workers", "", "comma-separated worker addresses for distributed evaluation")
		jsonOut  = fs.Bool("json", false, "emit the result as JSON")
		progress = fs.Bool("progress", false, "print per-level progress to stderr")
		budget   = fs.Duration("budget", 0, "anytime mode: stop enumerating after this wall-clock budget and report the certified optimality gap (0 = run to completion)")

		checkpoint  = fs.String("checkpoint", "", "persist enumeration state to this file after every level")
		resume      = fs.Bool("resume", false, "resume from -checkpoint (missing file starts fresh)")
		tracePath   = fs.String("trace", "", "write a JSON span dump of the run (levels, evaluations, RPCs) to this file")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /debug/vars and /debug/pprof on this address while the run executes")
		callTimeout = fs.Duration("call-timeout", dist.DefaultCallTimeout, "per-RPC deadline for distributed workers (0 = none)")
		hedgeAfter  = fs.Duration("hedge-after", 0, "speculatively re-execute a partition stuck longer than this fixed delay (0 = adaptive via -hedge-mult)")
		hedgeMult   = fs.Float64("hedge-mult", dist.DefaultHedgeMultiplier, "adaptive hedging: straggler threshold as a multiple of the level median (0 = off; default tuned by the committed slsim sweep)")
		heartbeat   = fs.Duration("heartbeat", dist.DefaultHeartbeatInterval, "probe worker liveness at this interval between levels (0 = off)")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, "sliceline", version.String())
		return 0
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(stderr, "sliceline: -resume requires -checkpoint")
		return 2
	}

	ds, errVec, err := loadInput(*dataset, *csvPath, *label, *task, *bins, *rows, *seed)
	var oneHot *frame.Encoding
	if err == nil {
		oneHot, err = frame.OneHot(ds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "sliceline:", err)
		return 1
	}

	if *budget < 0 {
		fmt.Fprintln(stderr, "sliceline: -budget must be non-negative")
		return 2
	}
	cfg := core.Config{
		K: *k, Alpha: *alpha, Sigma: *sigma, MaxLevel: *maxLevel,
		CheckpointPath: *checkpoint, Resume: *resume,
		Budget: *budget,
	}
	if *progress {
		cfg.OnLevel = func(ls core.LevelStats) {
			fmt.Fprintf(stderr, "level %d: %d candidates, %d valid, %d pruned (%v)\n",
				ls.Level, ls.Candidates, ls.Valid, ls.Pruned, ls.Elapsed.Round(1e6))
		}
		if *budget > 0 {
			cfg.OnSnapshot = func(s core.Snapshot) {
				best := "-"
				if len(s.TopK) > 0 {
					best = fmt.Sprintf("%.4f", s.TopK[0].Score)
				}
				fmt.Fprintf(stderr, "snapshot after level %d: best score %s, gap %.4f (%v elapsed)\n",
					s.Level, best, s.Gap, s.Elapsed.Round(1e6))
			}
		}
	}
	var tracer *obs.JSONTracer
	if *tracePath != "" {
		tracer = obs.NewJSONTracer()
		cfg.Tracer = tracer
		// Dump whatever was traced even when the run fails partway: a trace
		// of a failed run is exactly when one wants to look at it.
		defer func() {
			if err := writeTrace(*tracePath, tracer); err != nil {
				fmt.Fprintln(stderr, "sliceline:", err)
			}
		}()
	}
	if *metricsAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		srv, addr, err := obs.Serve(*metricsAddr, cfg.Metrics)
		if err != nil {
			fmt.Fprintln(stderr, "sliceline:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "sliceline: serving metrics and pprof on http://%s/\n", addr)
	}
	if *workers != "" {
		addrs, err := dist.ParseWorkerList(*workers)
		if err != nil {
			fmt.Fprintln(stderr, "sliceline:", err)
			return 2
		}
		cluster, err := dist.DialCluster(addrs, dist.Options{
			CallTimeout:       *callTimeout,
			HedgeDelay:        *hedgeAfter,
			HedgeMultiplier:   *hedgeMult,
			HeartbeatInterval: *heartbeat,
			Tracer:            cfg.Tracer,
			Metrics:           cfg.Metrics,
		})
		if err != nil {
			fmt.Fprintln(stderr, "sliceline:", err)
			return 1
		}
		defer cluster.Close()
		cfg.Evaluator = cluster
	}

	res, err := core.Run(context.Background(), oneHot, ds.Features, errVec, nil, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "sliceline:", err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "sliceline:", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "dataset %s: n=%d m=%d l=%d avg error %.4f sigma=%d alpha=%.2f\n",
		ds.Name, ds.NumRows(), ds.NumFeatures(), ds.OneHotWidth(), res.AvgError, res.Sigma, res.Alpha)
	fmt.Fprintf(stdout, "enumerated %d candidates over %d levels in %v\n",
		res.TotalCandidates(), len(res.Levels), res.Elapsed.Round(1e6))
	if res.Gap > 0 {
		fmt.Fprintf(stdout, "partial enumeration (budget or level cap); certified optimality gap %.4f\n", res.Gap)
	}
	fmt.Fprintln(stdout)
	if len(res.TopK) == 0 {
		fmt.Fprintln(stdout, "no slices with positive score satisfy the support constraint")
		return 0
	}
	for i, s := range res.TopK {
		fmt.Fprintf(stdout, "#%d %s\n", i+1, s)
	}
	return 0
}

func writeTrace(path string, tr *obs.JSONTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadInput(dataset, csvPath, label, task string, bins, rows int, seed int64) (*frame.Dataset, []float64, error) {
	if csvPath != "" {
		return loadCSV(csvPath, label, task, bins)
	}
	if dataset == "" {
		return nil, nil, fmt.Errorf("either -dataset or -csv is required")
	}
	g, err := datagen.ByName(dataset, rows, seed)
	if err != nil {
		return nil, nil, err
	}
	return g.DS, g.Err, nil
}

func loadCSV(path, label, task string, bins int) (*frame.Dataset, []float64, error) {
	if label == "" {
		return nil, nil, fmt.Errorf("-label is required with -csv")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fr, err := frame.ReadCSV(f)
	if err != nil {
		return nil, nil, err
	}
	ds, err := frame.FromFrame(fr, label, bins)
	if err != nil {
		return nil, nil, err
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		return nil, nil, err
	}
	e, _, err := ml.TrainAndScore(enc.X, ds.Y, task)
	if err != nil {
		return nil, nil, err
	}
	return ds, e, nil
}
