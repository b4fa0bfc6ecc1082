// Package report renders a complete model-debugging report in Markdown:
// dataset and error summaries, the SliceLine top-K with per-slice
// drill-downs, the decision-tree partition for comparison, and the
// enumeration statistics. It is the human-facing layer over the core
// algorithm — the artifact a practitioner files with a model review.
package report

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"sliceline/internal/baseline"
	"sliceline/internal/core"
	"sliceline/internal/frame"
)

// Options configures report generation.
type Options struct {
	// K is the number of slices to report. <= 0 defaults to 5.
	K int
	// Alpha is the SliceLine weight parameter. <= 0 defaults to 0.95.
	Alpha float64
	// Sigma is the minimum support. <= 0 defaults to max(32, n/100).
	Sigma int
	// MaxLevel caps the lattice level. <= 0 defaults to 3.
	MaxLevel int
	// SampleRows is the number of example row indices listed per slice.
	// <= 0 defaults to 5.
	SampleRows int
	// IncludeTree adds the non-overlapping decision-tree partition section.
	IncludeTree bool
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 5
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.95
	}
	if o.MaxLevel <= 0 {
		o.MaxLevel = 3
	}
	if o.SampleRows <= 0 {
		o.SampleRows = 5
	}
	return o
}

// Generate runs slice finding on (ds, e) and writes the Markdown report.
func Generate(w io.Writer, ds *frame.Dataset, e []float64, opt Options) error {
	opt = opt.withDefaults()
	enc, err := frame.OneHot(ds)
	if err != nil {
		return err
	}
	res, err := core.Run(context.Background(), enc, ds.Features, e, nil, core.Config{
		K: opt.K, Alpha: opt.Alpha, Sigma: opt.Sigma, MaxLevel: opt.MaxLevel,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "# Model debugging report: %s\n\n", ds.Name)

	// Dataset summary.
	fmt.Fprintf(w, "## Dataset\n\n")
	fmt.Fprintf(w, "- rows: %d\n- features: %d (one-hot width %d)\n",
		ds.NumRows(), ds.NumFeatures(), ds.OneHotWidth())
	doms := ds.TopDomains(3)
	fmt.Fprintf(w, "- largest feature domains: %v\n\n", doms)

	// Error summary.
	fmt.Fprintf(w, "## Model errors\n\n")
	stats := errStats(e)
	fmt.Fprintf(w, "- mean: %.4f\n- median: %.4f\n- p95: %.4f\n- max: %.4f\n- rows with zero error: %.1f%%\n\n",
		stats.mean, stats.median, stats.p95, stats.max, 100*stats.zeroFrac)

	writeSlices(w, ds, res, opt)
	writeEnumeration(w, res)

	if opt.IncludeTree {
		tree, err := baseline.TrainErrorTree(ds, e, baseline.TreeConfig{MaxDepth: opt.MaxLevel})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Non-overlapping partition (error tree)\n\n")
		fmt.Fprintf(w, "| leaf | size | mean error |\n|---|---|---|\n")
		for _, leaf := range tree.WorstLeaves(opt.K) {
			path := leaf.Path
			if path == "" {
				path = "(root)"
			}
			fmt.Fprintf(w, "| %s | %d | %.4f |\n", path, leaf.Size, leaf.MeanError)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// GenerateFromResult renders a report from a previously saved enumeration
// result — the versioned JSON document written by `sliceline -json` — without
// re-running slice finding or needing the dataset. Sections that require the
// raw rows (dataset summary, error statistics, per-slice example rows, the
// error-tree partition) are omitted; the top-K slices and enumeration
// statistics are rendered in full.
func GenerateFromResult(w io.Writer, name string, res *core.Result, opt Options) error {
	opt = opt.withDefaults()
	if name == "" {
		name = "(stored result)"
	}
	fmt.Fprintf(w, "# Model debugging report: %s\n\n", name)
	fmt.Fprintf(w, "## Stored result\n\n")
	fmt.Fprintf(w, "- rows: %d\n- overall average error: %.4f\n- enumeration time: %v\n",
		res.N, res.AvgError, res.Elapsed.Round(1e6))
	if res.Gap > 0 {
		fmt.Fprintf(w, "- partial enumeration: certified optimality gap %.4f (no unexplored slice can beat the reported top-K by more)\n", res.Gap)
	}
	fmt.Fprintln(w)
	writeSlices(w, nil, res, opt)
	writeEnumeration(w, res)
	return nil
}

// writeSlices renders the top-K section. ds may be nil (result-only reports),
// in which case the per-slice example rows are skipped.
func writeSlices(w io.Writer, ds *frame.Dataset, res *core.Result, opt Options) {
	maxLevel := opt.MaxLevel
	fmt.Fprintf(w, "## Problematic slices (SliceLine, alpha=%.2f, sigma=%d, L<=%d)\n\n",
		res.Alpha, res.Sigma, maxLevel)
	if len(res.TopK) == 0 {
		fmt.Fprintf(w, "No slice scores above 0: the model's errors are not concentrated in any sufficiently large subgroup.\n\n")
	}
	for i, s := range res.TopK {
		fmt.Fprintf(w, "### #%d score %.4f\n\n", i+1, s.Score)
		fmt.Fprintf(w, "- predicates: %s\n", predString(s))
		switch s.DiffSign {
		case 1:
			fmt.Fprintf(w, "- direction: regression (new model worse on this slice)\n")
		case -1:
			fmt.Fprintf(w, "- direction: improvement (new model better on this slice)\n")
		}
		fmt.Fprintf(w, "- size: %d rows (%.1f%% of data)\n", s.Size, 100*float64(s.Size)/float64(res.N))
		lift := 0.0
		if res.AvgError > 0 {
			lift = s.AvgError / res.AvgError
		}
		fmt.Fprintf(w, "- average error: %.4f (%.1fx the overall %.4f)\n", s.AvgError, lift, res.AvgError)
		fmt.Fprintf(w, "- maximum tuple error: %.4f\n", s.MaxError)
		// Schema v1 documents carry no statistics; both fields decode as
		// zero there, and a real run never produces p = q = 0 exactly.
		if s.PValue != 0 || s.QValue != 0 {
			marker := "not significant"
			if s.Significant {
				marker = "significant"
			}
			fmt.Fprintf(w, "- statistics: p=%.4g, q=%.4g (%s, one-sided Welch vs rest, BH-adjusted)\n", s.PValue, s.QValue, marker)
		}
		if ds != nil {
			rows, err := core.SliceRows(ds, s)
			if err == nil {
				k := opt.SampleRows
				if k > len(rows) {
					k = len(rows)
				}
				fmt.Fprintf(w, "- example rows: %v\n", rows[:k])
			}
		}
		fmt.Fprintln(w)
	}
}

// writeEnumeration renders the per-level enumeration statistics table.
func writeEnumeration(w io.Writer, res *core.Result) {
	fmt.Fprintf(w, "## Enumeration\n\n")
	fmt.Fprintf(w, "| level | candidates | valid | pruned |\n|---|---|---|---|\n")
	for _, ls := range res.Levels {
		fmt.Fprintf(w, "| %d | %d | %d | %d |\n", ls.Level, ls.Candidates, ls.Valid, ls.Pruned)
	}
	fmt.Fprintf(w, "\nTotal: %d candidates evaluated in %v.\n\n", res.TotalCandidates(), res.Elapsed.Round(1e6))
}

func predString(s core.Slice) string {
	out := ""
	for i, p := range s.Predicates {
		if i > 0 {
			out += " AND "
		}
		out += p.String()
	}
	return out
}

type summary struct {
	mean, median, p95, max float64
	zeroFrac               float64
}

func errStats(e []float64) summary {
	var s summary
	if len(e) == 0 {
		return s
	}
	sorted := append([]float64(nil), e...)
	sort.Float64s(sorted)
	total, zeros := 0.0, 0
	for _, v := range e {
		total += v
		if v == 0 {
			zeros++
		}
	}
	n := len(e)
	s.mean = total / float64(n)
	s.median = sorted[n/2]
	s.p95 = sorted[int(math.Min(float64(n-1), float64(n)*0.95))]
	s.max = sorted[n-1]
	s.zeroFrac = float64(zeros) / float64(n)
	return s
}
