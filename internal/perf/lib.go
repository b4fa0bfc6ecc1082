package perf

import (
	"context"
	"math/rand"
	"time"

	"sliceline"
	"sliceline/internal/core"
	"sliceline/internal/datagen"
	"sliceline/internal/frame"
)

// input is one generated dataset with its row-aligned error vector.
type input struct {
	ds  *frame.Dataset
	err []float64
}

// Every workload generates from fixed datagen seeds; Options.Seed only
// permutes rows, which leaves the work an op does unchanged.
const dataSeed = 1

// permuted returns the first n rows of g (all when n <= 0) in an order drawn
// from seed.
func permuted(g *datagen.Generated, n int, seed int64) input {
	rows := g.DS.NumRows()
	if n > 0 && n < rows {
		rows = n
	}
	x0 := frame.NewIntMatrix(rows, g.DS.NumFeatures())
	e := make([]float64, rows)
	for i, p := range rand.New(rand.NewSource(seed)).Perm(rows) {
		copy(x0.Row(i), g.DS.X0.Row(p))
		e[i] = g.Err[p]
	}
	return input{ds: &frame.Dataset{Name: g.DS.Name, X0: x0, Features: g.DS.Features}, err: e}
}

// censusInput is the input of lib-census-l2 and dist-tcp-census-l2.
func censusInput(o Options) input {
	rows := 20000
	if o.small {
		rows = 2000
	}
	return permuted(datagen.USCensus(rows, dataSeed), 0, o.Seed)
}

var censusConfig = sliceline.Config{K: 4, MaxLevel: 2}

func startLibCensus(_ context.Context, o Options, in instrument) (session, error) {
	return newLibSession(censusInput(o), censusConfig, o, in), nil
}

func startLibCovtype(_ context.Context, o Options, in instrument) (session, error) {
	rows, cfg := 10000, sliceline.Config{K: 4, MaxLevel: 3}
	if o.small {
		// Candidate generation does not shrink with the rows; the third
		// level alone takes most of a second.
		rows, cfg.MaxLevel = 1500, 2
	}
	return newLibSession(permuted(datagen.Covtype(rows, dataSeed), 0, o.Seed), cfg, o, in), nil
}

// libSession runs one sliceline.RunContext per op on one caller and checks
// every result against the warm-up op's.
type libSession struct {
	in     input
	cfg    sliceline.Config
	opts   []sliceline.Option
	ref    *core.Result
	tamper func(*core.Result)
}

func newLibSession(in input, cfg sliceline.Config, o Options, inst instrument) *libSession {
	s := &libSession{in: in, cfg: cfg, tamper: o.tamper}
	if tr := inst.tracer(); tr != nil {
		s.opts = append(s.opts, sliceline.WithTracer(tr))
	}
	return s
}

func (s *libSession) warmup(ctx context.Context) (err error) {
	s.ref, err = sliceline.RunContext(ctx, s.in.ds, s.in.err, s.cfg, s.opts...)
	return err
}

func (s *libSession) callers() []caller {
	return []caller{func(ctx context.Context) []sample { return []sample{s.op(ctx)} }}
}

func (s *libSession) op(ctx context.Context) sample {
	t := time.Now()
	res, err := sliceline.RunContext(ctx, s.in.ds, s.in.err, s.cfg, s.opts...)
	smp := sample{class: "op", dur: time.Since(t), res: res, err: err}
	if err == nil {
		if s.tamper != nil {
			s.tamper(res)
		}
		smp.err = sameResult(res, s.ref)
	}
	return smp
}

func (s *libSession) verify(context.Context) []error { return nil }
func (s *libSession) dataset() *frame.Dataset        { return s.in.ds }
func (s *libSession) close() error                   { return nil }
