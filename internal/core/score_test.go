package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sliceline/internal/fptol"
)

func TestScoreOfFullDatasetIsZero(t *testing.T) {
	// Independent of alpha, the score of the original X is always 0
	// (Section 2.2, property two).
	e := []float64{1, 2, 3, 4}
	for _, alpha := range []float64{0.1, 0.5, 0.95, 1} {
		sc := newScorer(4, e, alpha, 1)
		if got := sc.score(4, 10); math.Abs(got) > 1e-12 {
			t.Errorf("alpha=%v: score(X) = %v, want 0", alpha, got)
		}
	}
}

func TestScoreGoldenValues(t *testing.T) {
	// n=100, total error 50, ē=0.5. Slice of size 10 with total error 20:
	// avg slice error 2, ratio 4. alpha=0.5:
	// 0.5*(4-1) - 0.5*(100/10-1) = 1.5 - 4.5 = -3.
	sc := newScorer(100, constVec(100, 0.5), 0.5, 1)
	if got := sc.score(10, 20); math.Abs(got-(-3)) > 1e-12 {
		t.Errorf("score = %v, want -3", got)
	}
	// alpha=1: pure error ratio: 1*(4-1) = 3.
	sc1 := newScorer(100, constVec(100, 0.5), 1, 1)
	if got := sc1.score(10, 20); math.Abs(got-3) > 1e-12 {
		t.Errorf("score(alpha=1) = %v, want 3", got)
	}
}

func TestScoreBalanceAtAlphaHalf(t *testing.T) {
	// "A slice with twice the relative error but half the size of another
	// slice has exactly the same score" at alpha = 0.5... this holds for the
	// additive components: err term gain equals size term loss when the
	// ratios double/halve appropriately. Verify the concrete statement:
	// slice A: size s, avg err ratio r. slice B: size s/2, ratio 2r.
	// scA = 0.5(r-1) - 0.5(n/s - 1); scB = 0.5(2r-1) - 0.5(2n/s-1)
	// scB - scA = 0.5 r - 0.5 n/s, equal when r = n/s.
	n := 1000.0
	sc := newScorer(1000, constVec(1000, 1), 0.5, 1)
	s := 100.0
	r := n / s   // ratio where the property holds exactly
	seA := r * s // avg err r with ē=1
	seB := 2 * r * (s / 2)
	a := sc.score(s, seA)
	b := sc.score(s/2, seB)
	if !fptol.DefaultTol.Close(a, b) {
		t.Errorf("balanced scores differ: %v vs %v", a, b)
	}
}

func TestScoreEmptySlice(t *testing.T) {
	sc := newScorer(10, constVec(10, 1), 0.5, 1)
	if got := sc.score(0, 0); got != -math.MaxFloat64 {
		t.Errorf("score(empty) = %v, want most negative", got)
	}
}

func TestScorePerfectModel(t *testing.T) {
	// ē = 0: no slice can be problematic; scores are <= 0.
	sc := newScorer(10, constVec(10, 0), 0.5, 1)
	if got := sc.score(5, 0); got > 0 {
		t.Errorf("score with zero avg error = %v, want <= 0", got)
	}
}

func TestUpperBoundDominatesFeasibleScores(t *testing.T) {
	// For any feasible child (size in [sigma, ssUB], error respecting
	// se <= min(seUB, size*smUB)), the bound must dominate its score.
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(900)
		sigma := 1 + rng.Intn(20)
		alpha := 0.05 + 0.95*rng.Float64()
		e := make([]float64, n)
		for i := range e {
			e[i] = rng.Float64()
		}
		sc := newScorer(n, e, alpha, sigma)
		ssUB := float64(sigma + rng.Intn(n-sigma+1))
		smUB := rng.Float64()
		seUB := smUB * ssUB * rng.Float64() // consistent with sm bound
		ub := sc.upperBound(ssUB, seUB, smUB)
		for trial := 0; trial < 20; trial++ {
			size := float64(sigma) + rng.Float64()*(ssUB-float64(sigma))
			maxSE := math.Min(seUB, size*smUB)
			se := rng.Float64() * maxSE
			if s := sc.score(size, se); s > ub && !fptol.DefaultTol.Close(s, ub) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUpperBoundInfeasibleSize(t *testing.T) {
	sc := newScorer(100, constVec(100, 1), 0.95, 10)
	if got := sc.upperBound(5, 100, 1); got != -math.MaxFloat64 {
		t.Errorf("upperBound with ssUB < sigma = %v, want most negative", got)
	}
}

func TestUpperBoundTightAtParent(t *testing.T) {
	// The bound evaluated when the child equals the parent exactly must be
	// at least the parent's own score.
	sc := newScorer(1000, constVec(1000, 0.3), 0.9, 10)
	ss, se, sm := 50.0, 40.0, 1.0
	parent := sc.score(ss, se)
	if ub := sc.upperBound(ss, se, sm); ub < parent-1e-12 {
		t.Errorf("upperBound %v < parent score %v", ub, parent)
	}
}

// TestBoundMarginCoversRounding checks the margin of the join's input
// filter: an extension's ⌈sc⌉, whose statistics are at or below its
// parent's, never exceeds the parent's ⌈sc⌉ by more than the parent's
// boundMargin, and so the filter never drops a parent with an extension that
// passes the score bound. One family is adversarial: the child's size is one
// integer step below the parent's breakpoint e/m, with e = fl(s′·m) nudged up
// a few ulps, where fl(fl(x·m)/x) rounds the child's error term above the
// parent's. The other draws child and parent uniformly. Some draw must see
// the child's bound above the parent's, or the margin would carry no load.
func TestBoundMarginCoversRounding(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	above := 0
	check := func(s scorer, parent, child [3]float64) {
		t.Helper()
		ubP, ubC := s.upperBound(parent[0], parent[1], parent[2]), s.upperBound(child[0], child[1], child[2])
		d := s.boundMargin(parent[2])
		if ubC > ubP+d {
			t.Fatalf("%+v: child %v bound %v exceeds parent %v bound %v by %g, margin %g",
				s, child, ubC, parent, ubP, ubC-ubP, d)
		}
		if ubC > ubP {
			above++
		}
		// At the filter's edge a dropped parent's child must fail the bound.
		if sck := ubP + d; !s.canExtend(parent[0], parent[1], parent[2], sck) && ubC > sck && ubC >= 0 {
			t.Fatalf("%+v: parent %v dropped at sc_k %v, child %v bound %v passes", s, parent, sck, child, ubC)
		}
	}
	for i := 0; i < 200_000; i++ {
		n := 2 + rng.Intn(1_000_000)
		sigma := 1 + rng.Intn(min(n-1, 100))
		alpha := 1 - math.Ldexp(1, -1-rng.Intn(50)) // up to 1 − 2^−50
		if rng.Intn(2) == 0 {
			alpha = 0.001 + 0.999*rng.Float64()
		}
		s := scorer{n: float64(n), avgErr: math.Ldexp(0.5+rng.Float64(), -rng.Intn(20)), alpha: alpha, sigma: float64(sigma)}

		m := math.Ldexp(0.5+rng.Float64(), -rng.Intn(4))
		bp := sigma + 1 + rng.Intn(n-sigma)
		e := float64(bp) * m
		for k := rng.Intn(4); k > 0; k-- {
			e = math.Nextafter(e, math.Inf(1))
		}
		check(s, [3]float64{float64(bp + rng.Intn(n-bp+1)), e, m}, [3]float64{float64(bp - 1), e, m})

		ss := 1 + rng.Intn(n)
		sm := rng.Float64()
		se := float64(ss) * sm * rng.Float64()
		check(s, [3]float64{float64(ss), se, sm},
			[3]float64{float64(1 + rng.Intn(ss)), se * rng.Float64(), sm * rng.Float64()})
	}
	if above == 0 {
		t.Fatal("no draw has a child bound above its parent's: the fixture does not exercise the margin")
	}
}

// TestBoundMarginWithoutErrorTerm covers ē = 0 and sm = 0: the margin is
// never NaN, and with ē = 0 the filter keeps every parent.
func TestBoundMarginWithoutErrorTerm(t *testing.T) {
	for _, avg := range []float64{0, 0.25} {
		s := scorer{n: 1000, avgErr: avg, alpha: 0.95, sigma: 10}
		for _, sm := range []float64{0, 1} {
			if d := s.boundMargin(sm); math.IsNaN(d) || (avg > 0 && math.IsInf(d, 0)) {
				t.Fatalf("ē %v, sm %v: margin %v", avg, sm, d)
			}
			for _, sck := range []float64{0, 5, 1e300} {
				if avg == 0 && !s.canExtend(50, 0, sm, sck) {
					t.Fatalf("ē = 0, sm %v, sc_k %v: parent dropped", sm, sck)
				}
			}
		}
	}
}

func constVec(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
