// Command slreport produces a Markdown model-debugging report: dataset and
// error summaries, the SliceLine top-K with per-slice drill-downs, the
// non-overlapping decision-tree partition, and enumeration statistics.
//
// Usage:
//
//	slreport -dataset adult -k 5 > report.md
//	slreport -csv data.csv -label y -task reg -tree=false
//	slreport -result out.json > report.md   # from `sliceline -json out.json`
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sliceline/internal/core"
	"sliceline/internal/datagen"
	"sliceline/internal/frame"
	"sliceline/internal/ml"
	"sliceline/internal/report"
	"sliceline/internal/version"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "synthetic dataset: salaries|adult|covtype|kdd98|uscensus|criteo")
		rows     = flag.Int("rows", 0, "synthetic row count (0 = dataset default)")
		csvPath  = flag.String("csv", "", "CSV file to load instead of a synthetic dataset")
		label    = flag.String("label", "", "label column name for -csv")
		task     = flag.String("task", "class", "model for -csv: class (mlogit) or reg (linear)")
		bins     = flag.Int("bins", 10, "equi-width bins for continuous features")
		k        = flag.Int("k", 5, "slices to report")
		alpha    = flag.Float64("alpha", 0.95, "error/size weight")
		maxLevel = flag.Int("maxlevel", 3, "maximum lattice level")
		tree     = flag.Bool("tree", true, "include the decision-tree partition section")
		seed     = flag.Int64("seed", 1, "synthetic dataset seed")
		result   = flag.String("result", "", "render from a stored `sliceline -json` result file instead of re-running")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println("slreport", version.String())
		return
	}

	if *result != "" {
		if err := fromResult(*result, *k, *maxLevel); err != nil {
			fmt.Fprintln(os.Stderr, "slreport:", err)
			os.Exit(1)
		}
		return
	}

	ds, errVec, err := load(*dataset, *csvPath, *label, *task, *bins, *rows, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slreport:", err)
		os.Exit(1)
	}
	opt := report.Options{K: *k, Alpha: *alpha, MaxLevel: *maxLevel, IncludeTree: *tree}
	if err := report.Generate(os.Stdout, ds, errVec, opt); err != nil {
		fmt.Fprintln(os.Stderr, "slreport:", err)
		os.Exit(1)
	}
}

// fromResult renders a report from the versioned JSON document written by
// `sliceline -json`. The schema version is enforced by core.Result's
// UnmarshalJSON, so a document from an incompatible build fails loudly here
// rather than rendering garbage.
func fromResult(path string, k, maxLevel int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var res core.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	opt := report.Options{K: k, MaxLevel: maxLevel}
	return report.GenerateFromResult(os.Stdout, name, &res, opt)
}

func load(dataset, csvPath, label, task string, bins, rows int, seed int64) (*frame.Dataset, []float64, error) {
	if csvPath != "" {
		if label == "" {
			return nil, nil, fmt.Errorf("-label is required with -csv")
		}
		f, err := os.Open(csvPath)
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
	if dataset == "" {
		return nil, nil, fmt.Errorf("either -dataset or -csv is required")
	}
	g, err := datagen.ByName(dataset, rows, seed)
	if err != nil {
		return nil, nil, err
	}
	return g.DS, g.Err, nil
}
