package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"sliceline/internal/baseline"
	"sliceline/internal/core"
	"sliceline/internal/datagen"
	"sliceline/internal/dist"
	"sliceline/internal/frame"
)

func init() {
	register(Experiment{ID: "table1", Title: "Dataset characteristics", Paper: "Table 1", Run: runTable1})
	register(Experiment{ID: "fig3a", Title: "Pruning ablation: slices per level", Paper: "Figure 3(a)", Run: runFig3a})
	register(Experiment{ID: "fig3b", Title: "Pruning ablation: runtime", Paper: "Figure 3(b)", Run: runFig3b})
	register(Experiment{ID: "fig4a", Title: "Adult slice enumeration per level", Paper: "Figure 4(a)", Run: runFig4a})
	register(Experiment{ID: "fig4b", Title: "KDD98/USCensus/Covtype enumeration per level", Paper: "Figure 4(b)", Run: runFig4b})
	register(Experiment{ID: "fig5a", Title: "Top-1 score vs alpha", Paper: "Figure 5(a)", Run: runFig5})
	register(Experiment{ID: "fig5b", Title: "Top-1 size vs alpha", Paper: "Figure 5(b)", Run: runFig5})
	register(Experiment{ID: "sigma", Title: "Varying the sigma constraint", Paper: "Section 5.3 (text)", Run: runSigma})
	register(Experiment{ID: "fig6a", Title: "Local end-to-end runtime", Paper: "Figure 6(a)", Run: runFig6a})
	register(Experiment{ID: "fig6b", Title: "Evaluation block size sweep", Paper: "Figure 6(b)", Run: runFig6b})
	register(Experiment{ID: "fig7a", Title: "Scalability with rows", Paper: "Figure 7(a)", Run: runFig7a})
	register(Experiment{ID: "fig7b", Title: "Parallelization strategies", Paper: "Figure 7(b)", Run: runFig7b})
	register(Experiment{ID: "table2", Title: "Criteo enumeration statistics", Paper: "Table 2", Run: runTable2})
	register(Experiment{ID: "mlsys", Title: "Kernel and baseline comparison", Paper: "Section 5.4 (text)", Run: runMLSys})
}

// runTable1 regenerates Table 1: rows, original features, one-hot width and
// task per dataset.
func runTable1(w io.Writer, opt Options) error {
	sc := scaleFor(opt)
	gens := []struct {
		paperN int
		g      *datagen.Generated
	}{
		{32561, adultGen(opt)},
		{581012, datagen.Covtype(sc.covtype, opt.seed())},
		{95412, datagen.KDD98(sc.kdd98, opt.seed())},
		{2458285, datagen.USCensus(sc.uscensus, opt.seed())},
		{397, datagen.Salaries(opt.seed())},
		{192215183, datagen.Criteo(sc.criteo, opt.seed())},
	}
	tw := table(w)
	fmt.Fprintln(tw, "Dataset\tn\tpaper n\tm\tl\tML Alg.")
	for _, it := range gens {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\n",
			it.g.DS.Name, it.g.DS.NumRows(), it.paperN,
			it.g.DS.NumFeatures(), it.g.DS.OneHotWidth(), it.g.Task)
	}
	return tw.Flush()
}

// ablationConfigs are the five configurations of Figure 3.
func ablationConfigs() []struct {
	name string
	cfg  core.Config
} {
	base := core.Config{K: 4, Alpha: 0.95, MaxCandidatesPerLevel: 500_000}
	noPar := base
	noPar.DisableParentHandling = true
	noParScore := noPar
	noParScore.DisableScorePruning = true
	noParScoreSize := noParScore
	noParScoreSize.DisableSizePruning = true
	nothing := noParScoreSize
	nothing.DisableDedup = true
	return []struct {
		name string
		cfg  core.Config
	}{
		{"all-pruning", base},
		{"no-parents", noPar},
		{"no-parents,-score", noParScore},
		{"no-parents,-score,-size", noParScoreSize},
		{"no-pruning,-dedup", nothing},
	}
}

// runGen encodes g and runs core.Run on it; the encoding is part of the
// end-to-end time, as the paper measures it.
func runGen(g *datagen.Generated, cfg core.Config) (*core.Result, error) {
	enc, err := frame.OneHot(g.DS)
	if err != nil {
		return nil, err
	}
	return core.Run(context.Background(), enc, g.DS.Features, g.Err, nil, cfg)
}

func salaries2x2(opt Options) *datagen.Generated {
	return datagen.Salaries(opt.seed()).ReplicateCols(2).ReplicateRows(2)
}

// runFig3a prints enumerated slices per level for the five pruning configs
// on Salaries 2x2 (m = 10 features).
func runFig3a(w io.Writer, opt Options) error {
	g := salaries2x2(opt)
	sigma := (g.DS.NumRows() + 99) / 100
	tw := table(w)
	fmt.Fprint(tw, "config")
	for l := 1; l <= 10; l++ {
		fmt.Fprintf(tw, "\tL%d", l)
	}
	fmt.Fprintln(tw, "\ttruncated")
	for _, c := range ablationConfigs() {
		cfg := c.cfg
		cfg.Sigma = sigma
		res, err := runGen(g, opt.config(cfg))
		if err != nil {
			return err
		}
		counts := make(map[int]int)
		for _, ls := range res.Levels {
			counts[ls.Level] = ls.Candidates
		}
		fmt.Fprint(tw, c.name)
		for l := 1; l <= 10; l++ {
			if v, ok := counts[l]; ok {
				fmt.Fprintf(tw, "\t%d", v)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintf(tw, "\t%v\n", res.Truncated)
	}
	return tw.Flush()
}

// runFig3b prints end-to-end runtime for the same five configs.
func runFig3b(w io.Writer, opt Options) error {
	g := salaries2x2(opt)
	sigma := (g.DS.NumRows() + 99) / 100
	tw := table(w)
	fmt.Fprintln(tw, "config\telapsed\tevaluated\ttruncated")
	for _, c := range ablationConfigs() {
		cfg := c.cfg
		cfg.Sigma = sigma
		start := time.Now()
		res, err := runGen(g, opt.config(cfg))
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%v\n", c.name, fmtDur(time.Since(start)), res.TotalCandidates(), res.Truncated)
	}
	return tw.Flush()
}

// top1Marks formats the top-1 cells of the result tables. The cells of a run
// that MaxCandidatesPerLevel truncated carry a "*": its top-1 comes from an
// incomplete enumeration and can fall below the complete run's. footnote
// ends a table that has such a cell.
type top1Marks struct{ truncated bool }

// cells returns res's top-1 score and size, or "-" for an empty top-K.
func (m *top1Marks) cells(res *core.Result) (score, size string) {
	if len(res.TopK) == 0 {
		return "-", "-"
	}
	mark := ""
	if res.Truncated {
		m.truncated = true
		mark = "*"
	}
	return fmt.Sprintf("%.3f%s", res.TopK[0].Score, mark), fmt.Sprintf("%d%s", res.TopK[0].Size, mark)
}

// topResult is the one-cell form of cells, "score S size N".
func (m *top1Marks) topResult(res *core.Result) string {
	if len(res.TopK) == 0 {
		return "-"
	}
	score, size := m.cells(res)
	return "score " + score + " size " + size
}

func (m *top1Marks) footnote(w io.Writer) {
	if m.truncated {
		fmt.Fprintln(w, "* truncated by candidate budget")
	}
}

func printLevels(w io.Writer, name string, res *core.Result) error {
	tw := table(w)
	fmt.Fprintf(tw, "%s\tlevel\tcandidates\tvalid\tpruned\telapsed\n", name)
	for _, ls := range res.Levels {
		fmt.Fprintf(tw, "\t%d\t%d\t%d\t%d\t%s\n", ls.Level, ls.Candidates, ls.Valid, ls.Pruned, fmtDur(ls.Elapsed))
	}
	if res.Truncated {
		fmt.Fprintln(tw, "\t(truncated by candidate budget)")
	}
	return tw.Flush()
}

// runFig4a: Adult slice enumeration with unbounded level.
func runFig4a(w io.Writer, opt Options) error {
	g := adultGen(opt)
	res, err := runGen(g, opt.config(core.Config{Alpha: 0.95}))
	if err != nil {
		return err
	}
	return printLevels(w, "Adult", res)
}

// runFig4b: the correlated/wide datasets with level caps as in the paper
// (⌈L⌉ = 3 for USCensus, 4 for Covtype; KDD98 capped at 2 on this
// single-core setup — see EXPERIMENTS.md).
func runFig4b(w io.Writer, opt Options) error {
	sc := scaleFor(opt)
	covL := 4
	if opt.Quick {
		covL = 3
	}
	runs := []struct {
		g   *datagen.Generated
		cap int
	}{
		{datagen.KDD98(sc.kdd98, opt.seed()), 2},
		{datagen.USCensus(sc.uscensus, opt.seed()), 3},
		{datagen.Covtype(sc.covtype, opt.seed()), covL},
	}
	for _, r := range runs {
		res, err := runGen(r.g, opt.config(core.Config{Alpha: 0.95, MaxLevel: r.cap}))
		if err != nil {
			return err
		}
		if err := printLevels(w, r.g.DS.Name, res); err != nil {
			return err
		}
	}
	return nil
}

// runFig5: top-1 score and size across the alpha sweep.
func runFig5(w io.Writer, opt Options) error {
	alphas := []float64{0.36, 0.68, 0.84, 0.92, 0.96, 0.98, 0.99}
	sc := scaleFor(opt)
	gens := []*datagen.Generated{
		adultGen(opt),
		datagen.USCensus(sc.uscensus, opt.seed()),
	}
	if !opt.Quick {
		gens = append(gens, datagen.Covtype(sc.covtype, opt.seed()))
	}
	tw := table(w)
	var marks top1Marks
	fmt.Fprint(tw, "dataset")
	for _, a := range alphas {
		fmt.Fprintf(tw, "\ta=%.2f", a)
	}
	fmt.Fprintln(tw)
	for _, g := range gens {
		enc, err := frame.OneHot(g.DS)
		if err != nil {
			return err
		}
		scoreRow := fmt.Sprintf("%s score", g.DS.Name)
		sizeRow := fmt.Sprintf("%s size", g.DS.Name)
		for _, a := range alphas {
			res, err := core.Run(context.Background(), enc, g.DS.Features, g.Err, nil, opt.config(core.Config{
				K: 10, Alpha: a, MaxLevel: 3,
			}))
			if err != nil {
				return err
			}
			score, size := marks.cells(res)
			scoreRow += "\t" + score
			sizeRow += "\t" + size
		}
		fmt.Fprintln(tw, scoreRow)
		fmt.Fprintln(tw, sizeRow)
	}
	marks.footnote(tw)
	return tw.Flush()
}

// runSigma: the minimum-support sweep of Section 5.3.
func runSigma(w io.Writer, opt Options) error {
	fracs := []float64{1e-4, 1e-3, 1e-2, 1e-1}
	if opt.Quick {
		fracs = []float64{1e-3, 1e-2, 1e-1}
	}
	gens := []*datagen.Generated{adultGen(opt)}
	if !opt.Quick {
		gens = append(gens, datagen.USCensus(scaleFor(opt).uscensus, opt.seed()))
	}
	tw := table(w)
	var marks top1Marks
	fmt.Fprintln(tw, "dataset\tsigma/n\tsigma\ttop-1 score\tevaluated\telapsed\ttruncated")
	for _, g := range gens {
		enc, err := frame.OneHot(g.DS)
		if err != nil {
			return err
		}
		n := g.DS.NumRows()
		for _, f := range fracs {
			sigma := int(f * float64(n))
			if sigma < 1 {
				sigma = 1
			}
			start := time.Now()
			res, err := core.Run(context.Background(), enc, g.DS.Features, g.Err, nil, opt.config(core.Config{
				K: 10, Alpha: 0.95, Sigma: sigma, MaxLevel: 3,
			}))
			if err != nil {
				return err
			}
			top1, _ := marks.cells(res)
			fmt.Fprintf(tw, "%s\t%.0e\t%d\t%s\t%d\t%s\t%v\n",
				g.DS.Name, f, sigma, top1, res.TotalCandidates(), fmtDur(time.Since(start)), res.Truncated)
		}
	}
	marks.footnote(tw)
	return tw.Flush()
}

// runFig6a: end-to-end local runtime per dataset (including one-hot
// encoding, as the paper measures), with ⌈L⌉ = 3 and defaults.
func runFig6a(w io.Writer, opt Options) error {
	sc := scaleFor(opt)
	runs := []struct {
		g   *datagen.Generated
		cap int
	}{
		{salaries2x2(opt), 3},
		{adultGen(opt), 3},
		{datagen.Covtype(sc.covtype, opt.seed()), 3},
		{datagen.KDD98(sc.kdd98, opt.seed()), 2},
		{datagen.USCensus(sc.uscensus, opt.seed()), 3},
		{datagen.Criteo(sc.criteo, opt.seed()), 3},
	}
	tw := table(w)
	var marks top1Marks
	fmt.Fprintln(tw, "dataset\tn\tl\tlevels\telapsed\ttop-1 score\tevaluated")
	for _, r := range runs {
		start := time.Now()
		res, err := runGen(r.g, opt.config(core.Config{Alpha: 0.95, MaxLevel: r.cap}))
		if err != nil {
			return err
		}
		top1, _ := marks.cells(res)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%s\t%d\n",
			r.g.DS.Name, r.g.DS.NumRows(), r.g.DS.OneHotWidth(),
			len(res.Levels), fmtDur(time.Since(start)), top1, res.TotalCandidates())
	}
	marks.footnote(tw)
	return tw.Flush()
}

// runFig6b: hybrid evaluation block size sweep on Adult and USCensus.
func runFig6b(w io.Writer, opt Options) error {
	blocks := []int{1, 4, 16, 64, 256, 1024}
	gens := []*datagen.Generated{adultGen(opt)}
	if !opt.Quick {
		gens = append(gens, datagen.USCensus(scaleFor(opt).uscensus, opt.seed()))
	}
	tw := table(w)
	fmt.Fprint(tw, "dataset")
	for _, b := range blocks {
		fmt.Fprintf(tw, "\tb=%d", b)
	}
	fmt.Fprintln(tw, "\tauto")
	for _, g := range gens {
		enc, err := frame.OneHot(g.DS)
		if err != nil {
			return err
		}
		fmt.Fprint(tw, g.DS.Name)
		for _, b := range append(blocks, 0) {
			start := time.Now()
			if _, err := core.Run(context.Background(), enc, g.DS.Features, g.Err, nil, opt.config(core.Config{
				Alpha: 0.95, MaxLevel: 3, BlockSize: b,
			})); err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%s", fmtDur(time.Since(start)))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// runFig7a: scalability with row replication of USCensus (relative support
// preserves enumeration characteristics), against ideal scaling. The paper
// fixes b=4 here; on a single core that multiplies dataset scans, so the
// automatic block size is used instead (the subject of the experiment is
// row scaling, not block size).
func runFig7a(w io.Writer, opt Options) error {
	factors := []int{1, 2, 4, 8}
	if opt.Quick {
		factors = []int{1, 2, 4}
	}
	base := datagen.USCensus(scaleFor(opt).uscensus, opt.seed())
	tw := table(w)
	fmt.Fprintln(tw, "replication\trows\telapsed\tideal\tL2 slices\tL3 slices")
	var baseElapsed time.Duration
	for _, f := range factors {
		g := base.ReplicateRows(f)
		start := time.Now()
		res, err := runGen(g, opt.config(core.Config{Alpha: 0.95, MaxLevel: 3}))
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if f == 1 {
			baseElapsed = elapsed
		}
		l2, l3 := 0, 0
		for _, ls := range res.Levels {
			if ls.Level == 2 {
				l2 = ls.Candidates
			}
			if ls.Level == 3 {
				l3 = ls.Candidates
			}
		}
		fmt.Fprintf(tw, "x%d\t%d\t%s\t%s\t%d\t%d\n",
			f, g.DS.NumRows(), fmtDur(elapsed), fmtDur(baseElapsed*time.Duration(f)), l2, l3)
	}
	return tw.Flush()
}

// runFig7b: parallelization strategies — MT-Ops (BarrierEvaluator), MT-PFor
// (the built-in evaluation at BlockSize b), and Dist-PFor over TCP workers
// with gob serialization (a simulated scale-out cluster on localhost).
func runFig7b(w io.Writer, opt Options) error {
	g := datagen.USCensus(scaleFor(opt).uscensus, opt.seed())
	enc, err := frame.OneHot(g.DS)
	if err != nil {
		return err
	}
	cfg := core.Config{Alpha: 0.95, MaxLevel: 3}

	tw := table(w)
	var marks top1Marks
	fmt.Fprintln(tw, "strategy\tworkers\telapsed\ttop-1 score")
	report := func(name string, workers int, ev core.ExternalEvaluator) error {
		c := cfg
		if ev != nil {
			c.Evaluator = ev
		}
		start := time.Now()
		res, err := core.Run(context.Background(), enc, g.DS.Features, g.Err, nil, opt.config(c))
		if err != nil {
			return err
		}
		top1, _ := marks.cells(res)
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", name, workers, fmtDur(time.Since(start)), top1)
		return nil
	}

	// All strategies share one block size so the comparison isolates the
	// orchestration (barriers, broadcast, serialization), not scan sharing.
	const b = 256
	cfg.BlockSize = b
	if err := report("MT-Ops", 1, &BarrierEvaluator{BlockSize: b}); err != nil {
		return err
	}
	if err := report("MT-PFor", 1, nil); err != nil {
		return err
	}
	for _, nw := range []int{2, 4} {
		cluster, shutdown, err := localTCPCluster(nw, b)
		if err != nil {
			return err
		}
		if err := report("Dist-PFor", nw, cluster); err != nil {
			shutdown()
			return err
		}
		cluster.Close()
		shutdown()
	}
	marks.footnote(tw)
	return tw.Flush()
}

// localTCPCluster spins up n worker servers on loopback TCP and returns a
// connected cluster plus a shutdown function.
func localTCPCluster(n, blockSize int) (*dist.Cluster, func(), error) {
	listeners := make([]net.Listener, 0, n)
	addrs := make([]string, 0, n)
	shutdown := func() {
		for _, l := range listeners {
			l.Close()
		}
	}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		listeners = append(listeners, lis)
		go dist.Serve(lis) //nolint:errcheck // lifetime bound to listener
		addrs = append(addrs, lis.Addr().String())
	}
	cluster, err := dist.DialCluster(addrs, dist.Options{BlockSize: blockSize})
	if err != nil {
		shutdown()
		return nil, nil, err
	}
	return cluster, shutdown, nil
}

// runTable2: Criteo enumeration statistics through lattice level 6.
func runTable2(w io.Writer, opt Options) error {
	g := datagen.Criteo(scaleFor(opt).criteo, opt.seed())
	res, err := runGen(g, opt.config(core.Config{Alpha: 0.95, MaxLevel: 6}))
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprint(tw, "Lattice Level:")
	for _, ls := range res.Levels {
		fmt.Fprintf(tw, "\t%d", ls.Level)
	}
	fmt.Fprint(tw, "\nCandidates:")
	for _, ls := range res.Levels {
		fmt.Fprintf(tw, "\t%d", ls.Candidates)
	}
	fmt.Fprint(tw, "\nValid Slices:")
	for _, ls := range res.Levels {
		fmt.Fprintf(tw, "\t%d", ls.Valid)
	}
	fmt.Fprint(tw, "\nElapsed Time:")
	for _, ls := range res.Levels {
		fmt.Fprintf(tw, "\t%s", fmtDur(ls.Elapsed))
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// runMLSys: the Section 5.4 comparison — fused sparse kernel vs dense
// materialized intermediates (limited-sparsity ML system) vs the
// SliceFinder-style heuristic lattice search.
func runMLSys(w io.Writer, opt Options) error {
	g := adultGen(opt)
	enc, err := frame.OneHot(g.DS)
	if err != nil {
		return err
	}
	tw := table(w)
	var marks top1Marks
	fmt.Fprintln(tw, "system\telapsed\ttop result")

	start := time.Now()
	res, err := core.Run(context.Background(), enc, g.DS.Features, g.Err, nil, opt.config(core.Config{Alpha: 0.95, MaxLevel: 3}))
	if err != nil {
		return err
	}
	fused := time.Since(start)
	fmt.Fprintf(tw, "SliceLine (fused sparse)\t%s\t%s\n", fmtDur(fused), marks.topResult(res))

	start = time.Now()
	resD, err := core.Run(context.Background(), enc, g.DS.Features, g.Err, nil, opt.config(core.Config{Alpha: 0.95, MaxLevel: 3, Evaluator: &DenseIntermediates{}}))
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "SliceLine (dense intermediates)\t%s\t%s\n", fmtDur(time.Since(start)), marks.topResult(resD))

	start = time.Now()
	sf, err := baseline.Run(g.DS, g.Err, baseline.Config{K: 4, MaxLevel: 3})
	if err != nil {
		return err
	}
	topSF := "-"
	if len(sf.Slices) > 0 {
		topSF = fmt.Sprintf("effect %.3f size %d", sf.Slices[0].EffectSize, sf.Slices[0].Size)
	}
	fmt.Fprintf(tw, "SliceFinder (heuristic)\t%s\t%s\n", fmtDur(time.Since(start)), topSF)

	start = time.Now()
	tree, err := baseline.TrainErrorTree(g.DS, g.Err, baseline.TreeConfig{MaxDepth: 3})
	if err != nil {
		return err
	}
	topDT := "-"
	if worst := tree.WorstLeaves(1); len(worst) > 0 {
		topDT = fmt.Sprintf("mean err %.3f size %d", worst[0].MeanError, worst[0].Size)
	}
	fmt.Fprintf(tw, "Decision tree (non-overlapping)\t%s\t%s\n", fmtDur(time.Since(start)), topDT)
	marks.footnote(tw)
	return tw.Flush()
}
