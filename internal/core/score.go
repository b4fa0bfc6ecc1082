package core

import "math"

// scorer evaluates the paper's scoring function (Equation 1/5) and its upper
// bound (Equation 3). All quantities are kept as float64 for direct use in
// the vectorized kernels.
type scorer struct {
	n        float64 // dataset rows
	totalErr float64 // sum(e)
	avgErr   float64 // ē = sum(e)/n
	alpha    float64
	sigma    float64
}

func newScorer(n int, e []float64, alpha float64, sigma int) scorer {
	total := 0.0
	for _, v := range e {
		total += v
	}
	s := scorer{
		n:        float64(n),
		totalErr: total,
		alpha:    alpha,
		sigma:    float64(sigma),
	}
	if n > 0 {
		s.avgErr = total / float64(n)
	}
	return s
}

// newWeightedScorer treats row i as w[i] identical rows: n = Σw and the
// total error is Σ w_i·e_i.
func newWeightedScorer(e, w []float64, alpha float64, sigma int) scorer {
	totalW, totalErr := 0.0, 0.0
	for i, v := range e {
		totalW += w[i]
		totalErr += w[i] * v
	}
	s := scorer{
		n:        totalW,
		totalErr: totalErr,
		alpha:    alpha,
		sigma:    float64(sigma),
	}
	if totalW > 0 {
		s.avgErr = totalErr / totalW
	}
	return s
}

// score computes sc = α((se/|S|)/ē − 1) − (1−α)(n/|S| − 1) for a slice with
// size ss and total error se. Empty slices score an (arbitrarily) large
// negative value, per the paper's footnote.
func (s scorer) score(ss, se float64) float64 {
	if ss <= 0 {
		return -math.MaxFloat64
	}
	if s.avgErr == 0 {
		// A perfect model has no problematic slices; every score is the pure
		// size penalty, which is <= 0.
		return -(1 - s.alpha) * (s.n/ss - 1)
	}
	return s.alpha*((se/ss)/s.avgErr-1) - (1-s.alpha)*(s.n/ss-1)
}

// scoreAt evaluates the upper-bound objective of Equation 3 at a fixed slice
// size sz, with the error bound ⌈se⌉ = min(seUB, sz·smUB).
func (s scorer) scoreAt(sz, seUB, smUB float64) float64 {
	if sz <= 0 {
		return -math.MaxFloat64
	}
	se := seUB
	if cap := sz * smUB; cap < se {
		se = cap
	}
	return s.score(sz, se)
}

// upperBound computes ⌈sc⌉ per Equation 3: the maximum of the bound
// objective over |S| ∈ [σ, ssUB], with ⌈se⌉ = min(seUB, |S|·smUB) and ssUB,
// seUB, smUB the minima over all enumerated parents. The objective is
// piecewise monotone in |S| with a single breakpoint at seUB/smUB, so the
// maximum is attained at σ, at the (clamped) breakpoint, or at ssUB — the
// three "interesting points" of Section 3.1.
func (s scorer) upperBound(ssUB, seUB, smUB float64) float64 {
	if ssUB < s.sigma {
		// No feasible size: any child violates the support constraint.
		return -math.MaxFloat64
	}
	best := s.scoreAt(s.sigma, seUB, smUB)
	if smUB > 0 {
		bp := seUB / smUB
		if bp < s.sigma {
			bp = s.sigma
		}
		if bp > ssUB {
			bp = ssUB
		}
		if v := s.scoreAt(bp, seUB, smUB); v > best {
			best = v
		}
	}
	if v := s.scoreAt(ssUB, seUB, smUB); v > best {
		best = v
	}
	return best
}

// boundMargin bounds how far rounding can lift upperBound at the statistics
// of any extension of a slice with max error sm above upperBound at the
// slice's own. In real arithmetic ⌈sc⌉ is non-decreasing in each argument
// and an extension's bounds are minima over its parents, so the margin
// would be 0; in floating point fl(fl(x·m)/x) is not monotone in x, and an
// extension just below the slice's breakpoint can score a few ulps higher.
// Every term upperBound adds has magnitude at most α·sm/ē, (1−α)·n/σ or 1
// at sizes >= σ >= 1, and each is formed by a handful of roundings, so the
// error of either bound is a few dozen ulps of their sum; 2^−40 is 2^13 ulps
// of it. With ē = 0 there is no error term to bound, and the margin is +Inf.
func (s scorer) boundMargin(sm float64) float64 {
	if s.avgErr == 0 {
		return math.Inf(1)
	}
	return 0x1p-40 * (s.alpha*sm/s.avgErr + (1-s.alpha)*s.n/s.sigma + 2)
}

// canExtend reports whether an extension of a slice with statistics ss, se
// and sm may still pass Equation 9's score bound ⌈sc⌉ > sck ∧ ⌈sc⌉ >= 0. It
// reports false only when the slice's own bound fails it by more than
// boundMargin, so every extension's bound fails it too.
func (s scorer) canExtend(ss, se, sm, sck float64) bool {
	ub, d := s.upperBound(ss, se, sm), s.boundMargin(sm)
	return ub > sck-d && ub >= -d
}
