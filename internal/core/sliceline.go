package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// level holds the enumerated slices of one lattice level in the reduced
// one-hot column space: per slice its sorted column list and evaluated
// statistics (the paper's S and R = [sc, se, sm, ss]).
type level struct {
	cols [][]int
	sc   []float64
	se   []float64
	sm   []float64
	ss   []float64
}

func (l *level) size() int { return len(l.cols) }

// newLevel allocates a level of n slices with zeroed statistics; the caller
// fills in the column lists.
func newLevel(n int) *level {
	return &level{
		cols: make([][]int, n),
		sc:   make([]float64, n),
		se:   make([]float64, n),
		sm:   make([]float64, n),
		ss:   make([]float64, n),
	}
}

// state carries the immutable inputs of one enumeration run.
type state struct {
	cfg      Config
	sc       scorer
	x        *matrix.CSR // the full one-hot matrix, n × l
	kernel   *Kernel     // built-in evaluation kernel over X[, cI] (bitset/CSR selection)
	e        []float64
	w        []float64 // optional row weights (nil = unit weights)
	featOf   []int     // original feature per reduced column
	valOf    []int     // 1-based value code per reduced column
	m        int       // original feature count
	eval     ExternalEvaluator
	memo     *sliceMemo // incremental statistics memo (nil on batch runs)
	origCols []int      // original one-hot column per reduced column (= cI)
	ob       coreObs    // pre-resolved metric handles (all nil when metrics are off)
	sigLevel float64    // resolved FDR level for Slice.Significant
	totSq    float64    // Σ w_i·e_i², the global total behind welchP
}

// Run executes SliceLine (Algorithm 1) over the one-hot encoding of a
// dataset and a row-aligned error vector e, returning the top-K slices and
// per-level enumeration statistics. feats supplies names and decode labels
// for the result and must align with the encoding. The error vector
// typically comes from ml.SquaredLoss or ml.Inaccuracy applied to a trained
// model's predictions; every entry must be finite and >= 0.
//
// w holds optional row weights (nil means unit weights): row i counts as
// w[i] identical rows in every size and error aggregate, so deduplicated
// rows with multiplicities produce exactly the same top-K as their expanded
// form. Weights must be finite and >= 0 with a positive total; a zero weight
// excludes its row from every aggregate, including the max tuple error,
// which is how windowed runs retire rows without re-encoding. Non-integer
// weights are permitted (Slice.Size then reports the truncated weighted
// size). External evaluators do not accept weights.
//
// Cancellation of ctx is honored between lattice levels and propagated into
// external evaluators, so a cancelled run aborts in-flight distributed
// evaluations instead of waiting for the level to finish.
func Run(ctx context.Context, enc *frame.Encoding, feats []frame.Feature, e, w []float64, cfg Config) (*Result, error) {
	return run(ctx, enc, feats, e, w, cfg, nil)
}

// checkErrVec applies the error-vector rule every run shares: one value per
// row, each finite and >= 0.
func checkErrVec(e []float64, n int) error {
	if len(e) != n {
		return fmt.Errorf("core: error vector length %d vs %d rows: %w", len(e), n, ErrBadErrorVector)
	}
	return CheckValues(e, ErrBadErrorVector)
}

func run(ctx context.Context, enc *frame.Encoding, feats []frame.Feature, e, w []float64, cfg Config, memo *sliceMemo) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := enc.X.Rows()
	if err := checkErrVec(e, n); err != nil {
		return nil, err
	}
	totalW := float64(n)
	if w != nil {
		if len(w) != n {
			return nil, fmt.Errorf("core: weight vector length %d vs %d rows: %w", len(w), n, ErrBadWeight)
		}
		if err := CheckValues(w, ErrBadWeight); err != nil {
			return nil, err
		}
		// Zero weights are legal, but the total must stay positive (and
		// finite) so the scorer's n and ē are well defined.
		totalW = 0
		for _, v := range w {
			totalW += v
		}
		if !(totalW > 0) || math.IsInf(totalW, 1) {
			return nil, fmt.Errorf("core: total weight %v is not positive and finite: %w", totalW, ErrBadWeight)
		}
		if cfg.Evaluator != nil {
			return nil, fmt.Errorf("core: %w", ErrWeightedEvaluator)
		}
	}
	if len(feats) != enc.NumFeatures() {
		return nil, fmt.Errorf("core: %d feature descriptors vs %d encoded features: %w", len(feats), enc.NumFeatures(), ErrNoFeatures)
	}
	if n == 0 {
		return nil, fmt.Errorf("core: %w", ErrEmptyDataset)
	}
	cfg = cfg.WithDefaults(int(totalW))
	var sc scorer
	if w == nil {
		sc = newScorer(n, e, cfg.Alpha, cfg.Sigma)
	} else {
		sc = newWeightedScorer(e, w, cfg.Alpha, cfg.Sigma)
	}
	start := time.Now()

	st := &state{cfg: cfg, sc: sc, x: enc.X, e: e, w: w, m: enc.NumFeatures(), memo: memo, ob: newCoreObs(cfg.Metrics)}
	st.sigLevel = cfg.Significance
	if st.sigLevel == 0 {
		st.sigLevel = DefaultSignificance
	}
	for i, v := range e {
		if w != nil {
			st.totSq += w[i] * v * v
		} else {
			st.totSq += v * v
		}
	}
	st.ob.runs.Inc()
	// When the caller's context already carries a span (e.g. the server's
	// per-job span), the run parents under it so one job yields one span
	// tree; otherwise the run starts a root span on the configured tracer.
	var runSpan *obs.Span
	if parent := obs.FromContext(ctx); parent != nil {
		runSpan = parent.Child("core.run")
	} else {
		runSpan = obs.Start(cfg.Tracer, "core.run")
	}
	runSpan.SetInt("rows", int64(n))
	runSpan.SetInt("features", int64(st.m))
	runSpan.SetInt("onehot_width", int64(enc.Width()))
	runSpan.SetInt("nnz", int64(enc.X.NNZ()))
	runSpan.SetInt("k", int64(cfg.K))
	runSpan.SetInt("sigma", int64(cfg.Sigma))
	runSpan.SetFloat("alpha", cfg.Alpha)
	runSpan.SetBool("weighted", w != nil)
	runSpan.SetBool("external_evaluator", cfg.Evaluator != nil)
	defer runSpan.End()

	res := &Result{N: int(sc.n), AvgError: sc.avgErr, Sigma: cfg.Sigma, Alpha: cfg.Alpha}

	// b) Initialization: evaluate all basic (1-predicate) slices
	// (Equation 4: ss0 = colSums(X), se0 = (eᵀ X)ᵀ, sm0 the per-column max
	// error), which is Equation 10 with S = I: through one Kernel over the
	// full one-hot width. Incremental runs count 0/1 errors over a dense
	// width with popcounts of the memo's own full-width bits, which hold
	// every generation's rows; they, and runs whose external evaluator packs
	// its own partitions of X[, cI], otherwise take the row pass and build
	// no Kernel.
	width := enc.Width()
	ss0 := make([]float64, width)
	se0 := make([]float64, width)
	sm0 := make([]float64, width)
	switch {
	case memo != nil && memo.eb != nil && bitsetProfitable(enc.X):
		evalBasicBits(memo.bits, memo.eb, ss0, se0, sm0)
	case memo != nil, cfg.Evaluator != nil:
		basicRowPass(enc.X, e, w, ss0, se0, sm0)
	default:
		st.kernel = NewKernel(enc.X, e, w)
		st.kernel.evalBasic(ss0, se0, sm0)
	}
	if memo != nil {
		runSpan.SetStr("backend", "memo")
		runSpan.SetBool("binary", memo.eb != nil)
	}
	if width > 0 {
		// The full width's column density, which chose level 1's path.
		runSpan.SetFloat("density", float64(enc.X.NNZ())/(float64(n)*float64(width)))
	}

	// cI: valid basic slices (line 12 of Algorithm 1). With size pruning
	// disabled for the ablation study, only the non-zero constraints apply.
	minSS := float64(cfg.Sigma)
	if cfg.DisableSizePruning {
		minSS = 1
	}
	var cI []int
	for j := 0; j < width; j++ {
		if ss0[j] >= minSS && se0[j] > 0 {
			cI = append(cI, j)
		}
	}
	st.origCols = cI
	st.featOf = make([]int, len(cI))
	st.valOf = make([]int, len(cI))
	cur := newLevel(len(cI))
	basic := make([]int, len(cI)) // level 1's column arena: slice k is {k}
	for k, j := range cI {
		st.featOf[k] = enc.FeatureOf(j)
		st.valOf[k] = enc.ValueOf(j)
		basic[k] = k
		cur.cols[k] = basic[k : k+1 : k+1]
		cur.sc[k] = sc.score(ss0[j], se0[j])
		cur.se[k] = se0[j]
		cur.sm[k] = sm0[j]
		cur.ss[k] = ss0[j]
	}

	tk := newTopK(cfg.K, float64(cfg.Sigma))

	var ck *checkpointer
	if cfg.CheckpointPath != "" {
		ck = &checkpointer{path: cfg.CheckpointPath, sig: Signature(enc, e, w, cfg)}
	}
	resumedLevel := 0
	if cfg.Resume && ck != nil {
		csp := runSpan.Child("core.checkpoint.load")
		lvl, err := ck.load(tk, cur, res)
		csp.SetInt("level", int64(lvl))
		csp.End()
		if err != nil {
			return nil, err
		}
		if lvl > 0 {
			st.ob.ckLoads.Inc()
		}
		resumedLevel = lvl
	}

	// Project the evaluation to the reduced column space X[, cI], once any
	// checkpoint has been accepted: the built-in kernel narrows in place,
	// and an external evaluator gets the reduced matrix, built for it. The
	// run span rides the context from here on, so external evaluators (and
	// through them the distributed runtime) parent their spans under the
	// enumeration that issued the work.
	ctx = obs.ContextWith(ctx, runSpan)
	if st.kernel != nil {
		nnz := st.kernel.narrow(cI)
		runSpan.SetStr("backend", st.kernel.Backend())
		runSpan.SetBool("binary", st.kernel.Binary())
		if len(cI) > 0 {
			// X[, cI]'s column density, which chose the path of levels >= 2.
			runSpan.SetFloat("kept_density", float64(nnz)/(float64(n)*float64(len(cI))))
		}
	}
	if cfg.Evaluator != nil {
		st.eval = cfg.Evaluator
		if err := st.eval.Setup(ctx, enc.X.SelectCols(cI), e); err != nil {
			return nil, fmt.Errorf("core: evaluator setup: %w", err)
		}
	}

	if resumedLevel == 0 {
		lsp := runSpan.Child("core.level")
		lsp.SetInt("level", 1)
		for i := range cur.cols {
			tk.offer(cur.cols[i], cur.sc[i], cur.ss[i], cur.se[i], cur.sm[i])
		}
		ls := LevelStats{
			Level:      1,
			Candidates: enc.Width(),
			Valid:      countValid(cur, float64(cfg.Sigma)),
			Elapsed:    time.Since(start),
		}
		res.Levels = append(res.Levels, ls)
		lsp.SetInt("candidates", int64(ls.Candidates))
		lsp.SetInt("valid", int64(ls.Valid))
		lsp.SetFloat("threshold", tk.threshold())
		st.ob.levels.Inc()
		st.ob.candidates.Add(int64(ls.Candidates))
		st.ob.threshold.Set(tk.threshold())
		st.ob.levelSecs.Observe(time.Since(start).Seconds())
		lsp.End()
		// Persist before the progress callback: a run killed inside the
		// callback resumes from the level it just reported.
		if err := st.saveCheckpoint(ck, 1, tk, cur, res, runSpan); err != nil {
			return nil, err
		}
		if st.cfg.OnLevel != nil {
			st.cfg.OnLevel(ls)
		}
		st.emitSnapshot(tk, cur, 1, feats, start)
		resumedLevel = 1
	}

	// c) Level-wise lattice enumeration.
	maxL := st.m
	if cfg.MaxLevel > 0 && cfg.MaxLevel < maxL {
		maxL = cfg.MaxLevel
	}
	completed := resumedLevel
	for lvl := resumedLevel + 1; lvl <= maxL && cur.size() > 0; lvl++ {
		// Anytime boundary: the budget is only consulted between levels, so
		// a budget stop leaves exactly the state of a batch run with
		// MaxLevel = completed — the anytime ≡ batch identity.
		if st.budgetExceeded(start) {
			runSpan.Event("anytime: budget exhausted, stopping enumeration")
			break
		}
		// Cancellation boundary: a checkpoint for the previous level is on
		// disk, so a run aborted here resumes without losing completed work.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: enumeration cancelled before level %d: %w", lvl, err)
		}
		lvlStart := time.Now()
		lsp := runSpan.Child("core.level")
		lsp.SetInt("level", int64(lvl))
		lsp.SetInt("frontier", int64(cur.size()))
		cand, pstats := st.pairCandidates(cur, lvl, tk.threshold())
		pruned := pstats.total()
		setPruneAttrs(lsp, pstats)
		if cand == nil {
			// Generation itself exceeded the candidate budget.
			res.Truncated = true
			lsp.Event("truncated: candidate generation exceeded budget")
			lsp.End()
			st.recordLevel(res, LevelStats{
				Level: lvl, Elapsed: time.Since(start),
			})
			break
		}
		lsp.SetInt("candidates", int64(cand.size()))
		if cand.size() == 0 {
			lsp.End()
			st.recordLevel(res, LevelStats{
				Level: lvl, Pruned: pruned, Elapsed: time.Since(start),
			})
			// Every child was pruned: the frontier is empty and the top-K is
			// certified exact (gap 0).
			cur, completed = cand, lvl
			st.emitSnapshot(tk, cur, lvl, feats, start)
			break
		}
		if cand.size() > cfg.MaxCandidatesPerLevel {
			res.Truncated = true
			lsp.Event("truncated: level exceeds MaxCandidatesPerLevel")
			lsp.End()
			st.recordLevel(res, LevelStats{
				Level: lvl, Candidates: cand.size(), Pruned: pruned, Elapsed: time.Since(start),
			})
			break
		}
		// Evaluation spans parent under the level span via the context.
		lctx := obs.ContextWith(ctx, lsp)
		if err := st.evalSlices(lctx, cand, lvl); err != nil {
			lsp.End()
			return nil, err
		}
		for i := range cand.cols {
			tk.offer(cand.cols[i], cand.sc[i], cand.ss[i], cand.se[i], cand.sm[i])
		}
		ls := LevelStats{
			Level:      lvl,
			Candidates: cand.size(),
			Valid:      countValid(cand, float64(cfg.Sigma)),
			Pruned:     pruned,
			Elapsed:    time.Since(start),
		}
		res.Levels = append(res.Levels, ls)
		lsp.SetInt("evaluated", int64(ls.Candidates))
		lsp.SetInt("valid", int64(ls.Valid))
		lsp.SetInt("pruned", int64(ls.Pruned))
		lsp.SetFloat("threshold", tk.threshold())
		st.ob.levels.Inc()
		st.ob.candidates.Add(int64(ls.Candidates))
		st.ob.pruned.Add(int64(ls.Pruned))
		st.ob.threshold.Set(tk.threshold())
		st.ob.levelSecs.Observe(time.Since(lvlStart).Seconds())
		lsp.End()
		if err := st.saveCheckpoint(ck, lvl, tk, cand, res, runSpan); err != nil {
			return nil, err
		}
		if st.cfg.OnLevel != nil {
			st.cfg.OnLevel(ls)
		}
		cur, completed = cand, lvl
		st.emitSnapshot(tk, cur, lvl, feats, start)
	}

	res.TopK = st.decode(tk, feats)
	st.annotate(res.TopK, tk.entries)
	res.Gap = st.gapBound(cur, completed, tk.threshold())
	res.Elapsed = time.Since(start)
	runSpan.SetInt("levels", int64(len(res.Levels)))
	runSpan.SetInt("total_candidates", int64(res.TotalCandidates()))
	runSpan.SetInt("topk", int64(len(res.TopK)))
	runSpan.SetBool("truncated", res.Truncated)
	runSpan.SetFloat("gap", res.Gap)
	return res, nil
}

// saveCheckpoint wraps checkpointer.save with a span and a counter; a nil
// checkpointer stays a no-op.
func (st *state) saveCheckpoint(ck *checkpointer, lvl int, tk *topK, frontier *level, res *Result, parent *obs.Span) error {
	if ck == nil {
		return nil
	}
	sp := parent.Child("core.checkpoint.save")
	sp.SetInt("level", int64(lvl))
	err := ck.save(lvl, tk, frontier, res)
	sp.End()
	if err == nil {
		st.ob.ckSaves.Inc()
	}
	return err
}

// recordLevel appends a level's statistics and fires the progress callback.
func (st *state) recordLevel(res *Result, ls LevelStats) {
	res.Levels = append(res.Levels, ls)
	if st.cfg.OnLevel != nil {
		st.cfg.OnLevel(ls)
	}
}

func countValid(l *level, sigma float64) int {
	valid := 0
	for i := range l.cols {
		if l.ss[i] >= sigma && l.se[i] > 0 {
			valid++
		}
	}
	return valid
}
