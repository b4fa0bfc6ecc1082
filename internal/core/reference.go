package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// RunReference executes SliceLine as the literal linear-algebra program of
// the paper (Algorithm 1 plus the Section 4.3/4.5 pseudocode): candidate
// generation through the S·Sᵀ self-join with upper.tri extraction, combined
// slices via the P1/P2 extraction matrices, ND-array slice IDs with
// recoding, the dedup matrix M with the Equation 8/9 bound computations, and
// vectorized evaluation as I = ((X·Sᵀ) = L) with colSums/colMaxs aggregates.
//
// It materializes every intermediate the paper's DML script materializes, so
// it is only intended for small inputs; the production path (Run) computes
// the same algebra with fused sparse kernels. The two are cross-checked on
// randomized inputs in the test suite — this function is the executable
// specification.
func RunReference(ds *frame.Dataset, e []float64, cfg Config) (*Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	n := ds.NumRows()
	if len(e) != n {
		return nil, fmt.Errorf("core: error vector length %d vs %d rows", len(e), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if err := CheckValues(e, ErrBadErrorVector); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults(n)
	start := time.Now()
	m := ds.NumFeatures()

	// a) Data preparation (Algorithm 1 lines 1-5):
	// fdom ← colMaxs(X0); fb ← cumsum(fdom) − fdom; fe ← cumsum(fdom);
	// X ← onehot(X0 + fb) via the table(rix, cix) contingency primitive.
	fdom := make([]float64, m)
	for j := 0; j < m; j++ {
		fdom[j] = float64(ds.Features[j].Domain)
	}
	cum := matrix.CumSum(fdom)
	fb := make([]int, m)
	fe := make([]int, m)
	for j := 0; j < m; j++ {
		fe[j] = int(cum[j])
		fb[j] = fe[j] - int(fdom[j])
	}
	l := fe[m-1]
	var ts []matrix.Triple
	for i := 0; i < n; i++ {
		row := ds.X0.Row(i)
		for j, code := range row {
			ts = append(ts, matrix.Triple{Row: i, Col: fb[j] + code - 1})
		}
	}
	x := matrix.CSRFromTriples(n, l, ts).ToDense()

	// b) Initialization (Equation 4): ss0 = colSums(X)ᵀ, se0 = (eᵀ X)ᵀ,
	// sm0 = colMaxs(X · e).
	sc := newScorer(n, e, cfg.Alpha, cfg.Sigma)
	ss0 := matrix.ColSums(x)
	se0 := matrix.MatVec(x.T(), e)
	sm0 := matrix.ColMaxs(matrix.ScaleRows(x, e))

	// cI ← ss0 >= σ ∧ se0 > 0; select valid basic slices and project X.
	var cI []int
	for j := 0; j < l; j++ {
		if ss0[j] >= float64(cfg.Sigma) && se0[j] > 0 {
			cI = append(cI, j)
		}
	}
	res := &Result{N: n, AvgError: sc.avgErr, Sigma: cfg.Sigma, Alpha: cfg.Alpha}
	x2 := matrix.SelectCols(x, cI) // X ← X[, cI]

	// S: one-hot slice definitions in the reduced space; R = [sc se sm ss].
	nBasic := len(cI)
	s := matrix.NewDense(nBasic, nBasic)
	r := matrix.NewDense(nBasic, 4)
	for k, j := range cI {
		s.Set(k, k, 1)
		r.Set(k, 0, sc.score(ss0[j], se0[j]))
		r.Set(k, 1, se0[j])
		r.Set(k, 2, sm0[j])
		r.Set(k, 3, ss0[j])
	}
	featOf := make([]int, nBasic)
	valOf := make([]int, nBasic)
	for k, j := range cI {
		featOf[k] = featureOfOffset(j, fb, fe)
		valOf[k] = j - fb[featOf[k]] + 1
	}
	// Reduced-space feature block offsets for validity checks and IDs.
	begR, endR := reducedBlocks(featOf, m)

	tk := newTopK(cfg.K, float64(cfg.Sigma))
	for k := 0; k < nBasic; k++ {
		tk.offer([]int{k}, r.At(k, 0), r.At(k, 3), r.At(k, 1), r.At(k, 2))
	}
	res.Levels = append(res.Levels, LevelStats{
		Level: 1, Candidates: l, Valid: nBasic, Elapsed: time.Since(start),
	})

	maxL := m
	if cfg.MaxLevel > 0 && cfg.MaxLevel < maxL {
		maxL = cfg.MaxLevel
	}

	// c) Level-wise enumeration.
	for lvl := 2; lvl <= maxL && s.Rows() > 0; lvl++ {
		s, r = refPairCandidates(sc, s, r, lvl, tk.threshold(), begR, endR, cfg)
		if s.Rows() == 0 {
			res.Levels = append(res.Levels, LevelStats{Level: lvl, Elapsed: time.Since(start)})
			break
		}
		if s.Rows() > cfg.MaxCandidatesPerLevel {
			res.Truncated = true
			res.Levels = append(res.Levels, LevelStats{
				Level: lvl, Candidates: s.Rows(), Elapsed: time.Since(start),
			})
			break
		}
		// Vectorized evaluation (Equation 10): I = ((X Sᵀ) = L);
		// ss = colSums(I)ᵀ; se = (eᵀ I)ᵀ; sm = colMaxs(I · e).
		prod := matrix.MatMul(x2, s.T())
		ind := matrix.EqScalar(prod, float64(lvl))
		ss := matrix.ColSums(ind)
		se := matrix.MatVec(ind.T(), e)
		sm := matrix.ColMaxs(matrix.ScaleRows(ind, e))
		r = matrix.NewDense(s.Rows(), 4)
		valid := 0
		for k := 0; k < s.Rows(); k++ {
			score := sc.score(ss[k], se[k])
			r.Set(k, 0, score)
			r.Set(k, 1, se[k])
			r.Set(k, 2, sm[k])
			r.Set(k, 3, ss[k])
			if ss[k] >= float64(cfg.Sigma) && se[k] > 0 {
				valid++
			}
			tk.offer(denseRowCols(s, k), score, ss[k], se[k], sm[k])
		}
		res.Levels = append(res.Levels, LevelStats{
			Level: lvl, Candidates: s.Rows(), Valid: valid, Elapsed: time.Since(start),
		})
	}

	// Decode via the shared state machinery.
	st := &state{cfg: cfg, sc: sc, featOf: featOf, valOf: valOf, m: m}
	res.TopK = st.decode(tk, ds.Features)
	res.Elapsed = time.Since(start)
	return res, nil
}

// refPairCandidates is the Section 4.3 pseudocode with materialized
// matrices: input filtering, the SSᵀ self-join, P1/P2 extraction, combined
// slices P, feature-validity filtering, ND-array IDs, the dedup matrix M,
// the Equation 8 bound aggregations and the Equation 9 pruning filter.
func refPairCandidates(sc scorer, s, r *matrix.Dense, lvl int, sck float64, begR, endR []int, cfg Config) (*matrix.Dense, *matrix.Dense) {
	// Step 1: S ← removeEmpty(S · (R[,4] >= σ ∧ R[,2] > 0)).
	var keep []int
	for i := 0; i < s.Rows(); i++ {
		if r.At(i, 3) >= float64(cfg.Sigma) && r.At(i, 1) > 0 {
			keep = append(keep, i)
		}
	}
	s = matrix.SelectRows(s, keep)
	r = matrix.SelectRows(r, keep)
	if s.Rows() == 0 {
		return matrix.NewDense(0, s.Cols()), matrix.NewDense(0, 4)
	}

	// Step 2: pair join — I = upper.tri((S Sᵀ) = (L−2)).
	ssT := matrix.MatMul(s, s.T())
	pi, pj := matrix.UpperTriEq(ssT, float64(lvl-2))
	if len(pi) == 0 {
		return matrix.NewDense(0, s.Cols()), matrix.NewDense(0, 4)
	}

	// Step 3: extraction matrices P1, P2 (table(seq, rix)) and combined
	// slices P = ((P1 S) + (P2 S)) != 0, with bounds as the min of parents
	// (Equation 7).
	nPairs := len(pi)
	t1 := make([]matrix.Triple, nPairs)
	t2 := make([]matrix.Triple, nPairs)
	for k := range pi {
		t1[k] = matrix.Triple{Row: k, Col: pi[k]}
		t2[k] = matrix.Triple{Row: k, Col: pj[k]}
	}
	p1 := matrix.CSRFromTriples(nPairs, s.Rows(), t1).ToDense()
	p2 := matrix.CSRFromTriples(nPairs, s.Rows(), t2).ToDense()
	p := matrix.CmpScalar(matrix.Add(matrix.MatMul(p1, s), matrix.MatMul(p2, s)), 0,
		func(x, _ float64) bool { return x != 0 })
	ssPair := minPair(matrix.MatVec(p1, r.Col(3)), matrix.MatVec(p2, r.Col(3)))
	sePair := minPair(matrix.MatVec(p1, r.Col(1)), matrix.MatVec(p2, r.Col(1)))
	smPair := minPair(matrix.MatVec(p1, r.Col(2)), matrix.MatVec(p2, r.Col(2)))

	// Step 4: discard slices with multiple assignments per feature — for
	// each original feature check rowSums(P[, beg:end]) <= 1.
	validRow := make([]bool, nPairs)
	for k := range validRow {
		validRow[k] = true
	}
	for f := range begR {
		if begR[f] < 0 {
			continue
		}
		for k := 0; k < nPairs; k++ {
			if !validRow[k] {
				continue
			}
			sum := 0.0
			for c := begR[f]; c < endR[f]; c++ {
				sum += p.At(k, c)
			}
			if sum > 1 {
				validRow[k] = false
			}
		}
	}
	var vIdx []int
	for k, ok := range validRow {
		if ok {
			vIdx = append(vIdx, k)
		}
	}
	p = matrix.SelectRows(p, vIdx)
	p1 = matrix.SelectRows(p1, vIdx)
	p2 = matrix.SelectRows(p2, vIdx)
	ssPair = selectF(ssPair, vIdx)
	sePair = selectF(sePair, vIdx)
	smPair = selectF(smPair, vIdx)
	nPairs = len(vIdx)
	if nPairs == 0 {
		return matrix.NewDense(0, s.Cols()), matrix.NewDense(0, 4)
	}

	// Candidate deduplication: ND-array IDs over the feature blocks
	// (scale · rowIndexMax(P[,beg:end]) · rowMaxs(P[,beg:end])) recoded to
	// consecutive integers, then M = table(ID, seq(1, nrow(P))).
	ids := make([]int64, nPairs)
	scale := int64(1)
	for f := range begR {
		if begR[f] < 0 {
			continue
		}
		block := sliceColsRange(p, begR[f], endR[f])
		idxMax := matrix.RowIndexMax(block)
		rowMax := matrix.RowMaxs(block)
		dom := int64(endR[f] - begR[f] + 1)
		for k := 0; k < nPairs; k++ {
			ids[k] += scale * int64(float64(idxMax[k]+1)*rowMax[k])
		}
		scale *= dom
	}
	recode := map[int64]int{}
	var order []int64
	for _, id := range ids {
		if _, ok := recode[id]; !ok {
			recode[id] = len(order)
			order = append(order, id)
		}
	}
	nGroups := len(order)
	mTrip := make([]matrix.Triple, nPairs)
	for k, id := range ids {
		mTrip[k] = matrix.Triple{Row: recode[id], Col: k}
	}
	mMat := matrix.CSRFromTriples(nGroups, nPairs, mTrip).ToDense()

	// Equation 8: minimize via maximizing reciprocals; np counts distinct
	// parents per group.
	ssUB := recipRowMax(mMat, ssPair)
	seUB := recipRowMax(mMat, sePair)
	smUB := recipRowMax(mMat, smPair)
	parentsHit := matrix.MatMul(mMat, matrix.Add(p1, p2))
	np := matrix.RowSums(matrix.CmpScalar(parentsHit, 0, func(x, _ float64) bool { return x != 0 }))

	// Equation 9 pruning filter on M.
	var keepG []int
	for g := 0; g < nGroups; g++ {
		ub := sc.upperBound(ssUB[g], seUB[g], smUB[g])
		if ssUB[g] >= float64(cfg.Sigma) && ub > sck && ub >= 0 && int(np[g]) == lvl {
			keepG = append(keepG, g)
		}
	}
	if len(keepG) == 0 {
		return matrix.NewDense(0, s.Cols()), matrix.NewDense(0, 4)
	}
	mMat = matrix.SelectRows(mMat, keepG)
	// Deduplicate: S = P[rowIndexMax(M')], one representative per group.
	rep := matrix.RowIndexMax(mMat)
	return matrix.SelectRows(p, rep), matrix.NewDense(len(rep), 4)
}

func featureOfOffset(col int, fb, fe []int) int {
	for j := range fb {
		if col >= fb[j] && col < fe[j] {
			return j
		}
	}
	panic(fmt.Sprintf("core: one-hot column %d outside feature blocks", col))
}

// reducedBlocks computes, per original feature, the half-open column range
// it occupies in the reduced space (-1 begin if absent).
func reducedBlocks(featOf []int, m int) (beg, end []int) {
	beg = make([]int, m)
	end = make([]int, m)
	for f := range beg {
		beg[f] = -1
	}
	for c, f := range featOf {
		if beg[f] < 0 {
			beg[f] = c
		}
		end[f] = c + 1
	}
	return beg, end
}

func minPair(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = math.Min(a[i], b[i])
	}
	return out
}

func selectF(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = v[i]
	}
	return out
}

// recipRowMax computes 1/rowMaxs(M ⊙ (1/vᵀ)) with the ∞→0 handling of
// Equation 8: minimizing over each group's parents by maximizing the
// reciprocals, counting only entries selected by M.
func recipRowMax(m *matrix.Dense, v []float64) []float64 {
	inv := make([]float64, len(v))
	for i, x := range v {
		if x != 0 {
			inv[i] = 1 / x
		}
	}
	out := make([]float64, m.Rows())
	for i := 0; i < m.Rows(); i++ {
		mx := 0.0
		ri := m.Row(i)
		for j, w := range ri {
			if w != 0 && inv[j] > mx {
				mx = inv[j]
			}
		}
		if mx > 0 {
			out[i] = 1 / mx
		}
	}
	return out
}

func denseRowCols(s *matrix.Dense, k int) []int {
	var cols []int
	for j, v := range s.Row(k) {
		if v != 0 {
			cols = append(cols, j)
		}
	}
	sort.Ints(cols)
	return cols
}

func sliceColsRange(a *matrix.Dense, lo, hi int) *matrix.Dense {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return matrix.SelectCols(a, idx)
}
