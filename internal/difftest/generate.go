package difftest

import (
	"fmt"
	"math/rand"

	"sliceline/internal/core"
	"sliceline/internal/frame"
)

// GenOpts bounds the randomized case generator. The zero value is replaced
// by Defaults (suitable for cross-backend comparison); brute-force tests use
// Tiny to keep exhaustive enumeration fast.
type GenOpts struct {
	MinRows, MaxRows   int
	MinFeats, MaxFeats int
	MaxDomain          int     // per-feature domain in [2, MaxDomain]
	ZeroErrFrac        float64 // fraction of exactly-zero errors (correct rows)
	PlantFrac          float64 // probability of planting a high-error slice
	Weighted           bool    // attach positive random row weights
	IntWeights         bool    // with Weighted: integer weights (replication-equivalent)
	BinaryErrors       bool    // 0/1 errors, a classifier's inaccuracy, instead of continuous ones
}

// Error rates of BinaryErrors cases: rows of a planted slice err at a higher
// rate than the rest, as in internal/datagen.
const (
	binaryBaseRate  = 0.1
	binaryPlantRate = 0.9
)

// Defaults are sized so that enumeration exercises several lattice levels
// while a full plan × config sweep stays fast.
var Defaults = GenOpts{
	MinRows: 60, MaxRows: 220,
	MinFeats: 2, MaxFeats: 5,
	MaxDomain:   4,
	ZeroErrFrac: 0.3,
	PlantFrac:   0.5,
}

// Tiny keeps the slice lattice small enough for brute-force ground truth.
var Tiny = GenOpts{
	MinRows: 30, MaxRows: 120,
	MinFeats: 2, MaxFeats: 4,
	MaxDomain:   3,
	ZeroErrFrac: 0.3,
	PlantFrac:   0.5,
}

func (o GenOpts) withDefaults() GenOpts {
	if o.MaxRows == 0 {
		d := Defaults
		d.Weighted, d.IntWeights, d.BinaryErrors = o.Weighted, o.IntWeights, o.BinaryErrors
		return d
	}
	return o
}

// Generate derives a Case deterministically from the seed: a random
// categorical dataset, a non-negative error vector mixing exact zeros with
// continuous values, or drawn from {0,1} with BinaryErrors (either way
// optionally concentrated on a planted slice, so scores are meaningfully
// positive), optional row weights, and a randomized configuration covering
// the α / K / σ axes. Ablation switches and evaluator choice are left to the
// caller.
func Generate(seed int64, o GenOpts) *Case {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	n := o.MinRows + rng.Intn(o.MaxRows-o.MinRows+1)
	m := o.MinFeats + rng.Intn(o.MaxFeats-o.MinFeats+1)
	ds := &frame.Dataset{
		Name:     fmt.Sprintf("diff-%d", seed),
		X0:       frame.NewIntMatrix(n, m),
		Features: make([]frame.Feature, m),
	}
	for j := 0; j < m; j++ {
		dom := 2 + rng.Intn(o.MaxDomain-1)
		ds.Features[j] = frame.Feature{Name: fmt.Sprintf("f%d", j), Domain: dom}
		for i := 0; i < n; i++ {
			ds.X0.Set(i, j, 1+rng.Intn(dom))
		}
	}

	// Optionally plant a problematic conjunction whose rows get elevated
	// errors, mirroring internal/datagen's construction: differential bugs
	// in pruning only surface when slices actually beat the score threshold.
	planted := map[int]int{}
	if rng.Float64() < o.PlantFrac {
		nPreds := 1 + rng.Intn(2)
		for len(planted) < nPreds {
			f := rng.Intn(m)
			if _, ok := planted[f]; !ok {
				planted[f] = 1 + rng.Intn(ds.Features[f].Domain)
			}
		}
	}
	e := make([]float64, n)
	for i := range e {
		inPlant := len(planted) > 0
		for f, v := range planted {
			if ds.X0.At(i, f) != v {
				inPlant = false
				break
			}
		}
		switch {
		case o.BinaryErrors:
			rate := binaryBaseRate
			if inPlant {
				rate = binaryPlantRate
			}
			if rng.Float64() < rate {
				e[i] = 1
			}
		case inPlant:
			e[i] = 0.5 + rng.Float64()
		case rng.Float64() < o.ZeroErrFrac:
			e[i] = 0
		default:
			e[i] = rng.Float64()
		}
	}

	c := &Case{Seed: seed, DS: ds, E: e}
	if o.Weighted {
		c.W = make([]float64, n)
		for i := range c.W {
			if o.IntWeights {
				c.W[i] = float64(1 + rng.Intn(3))
			} else {
				c.W[i] = 0.25 + 2*rng.Float64()
			}
		}
	}
	c.Cfg = core.Config{
		K:     1 + rng.Intn(6),
		Sigma: 2 + rng.Intn(10),
		Alpha: 0.3 + 0.69*rng.Float64(),
	}
	return c
}
