package difftest

import (
	"context"
	"fmt"
	"net"
	"time"

	"sliceline/internal/bench"
	"sliceline/internal/core"
	"sliceline/internal/dist"
	"sliceline/internal/faults"
	"sliceline/internal/frame"
)

// Plan is one named execution backend. Run executes the case's
// configuration through that backend and returns the result; backends that
// allocate external resources (TCP workers) clean them up before returning.
// Only builtin/auto honors row weights: every other plan is an external
// evaluator, which core refuses to combine with weights.
type Plan struct {
	Name string
	// Exact reports that the plan must be bit-identical to builtin/auto:
	// the local kernels add every slice's rows in the same order whatever
	// the kernel, block size or worker count.
	Exact bool
	run   func(c *Case) (*core.Result, error)
}

// Run executes the plan on the case.
func (p Plan) Run(c *Case) (*core.Result, error) { return p.run(c) }

// runDS runs core.Run over the one-hot encoding of ds (w == nil: unit
// weights).
func runDS(ds *frame.Dataset, e, w []float64, cfg core.Config) (*core.Result, error) {
	enc, err := frame.OneHot(ds)
	if err != nil {
		return nil, err
	}
	return core.Run(context.Background(), enc, ds.Features, e, w, cfg)
}

// runBuiltin executes the in-process enumerator, honoring case weights.
func runBuiltin(c *Case, mutate func(*core.Config)) (*core.Result, error) {
	cfg := c.Cfg
	if mutate != nil {
		mutate(&cfg)
	}
	return runDS(c.DS, c.E, c.W, cfg)
}

// BuiltinPlans enumerates the single-process execution plans: the built-in
// evaluation, the dense-intermediates program of Section 5.4, and the fused
// CSR kernel driven as an external evaluator (bench.CSREvaluator) at the
// automatic block size and at the block sizes of Section 4.4's hybrid plan —
// b=1 is the task-parallel plan, b=nrow one shared scan, intermediate values
// the hybrid. The built-in path takes the CSR kernel only on sparse data, so
// the kernel/csr plans keep it covered end to end on every case, and they
// must return builtin/auto's bits, whichever kernel its density picks.
func BuiltinPlans() []Plan {
	plans := []Plan{
		{Name: "builtin/auto", run: func(c *Case) (*core.Result, error) {
			return runBuiltin(c, nil)
		}},
		{Name: "dense", run: func(c *Case) (*core.Result, error) {
			return runBuiltin(c, func(cfg *core.Config) { cfg.Evaluator = &bench.DenseIntermediates{} })
		}},
	}
	for _, b := range []int{0, 1, 3, 16, 1 << 30} {
		name := fmt.Sprintf("kernel/csr/b=%d", b)
		switch b {
		case 0:
			name = "kernel/csr"
		case 1 << 30:
			name = "kernel/csr/b=nrow"
		}
		plans = append(plans, Plan{Name: name, Exact: true, run: func(c *Case) (*core.Result, error) {
			return runBuiltin(c, func(cfg *core.Config) { cfg.Evaluator = &bench.CSREvaluator{BlockSize: b} })
		}})
	}
	return plans
}

// ClusterPlans enumerates Dist-PFor over in-process workers, one plan per
// requested worker count.
func ClusterPlans(workerCounts ...int) []Plan {
	var plans []Plan
	for _, nw := range workerCounts {
		nw := nw
		plans = append(plans, Plan{Name: fmt.Sprintf("cluster/inproc-%d", nw), run: func(c *Case) (*core.Result, error) {
			workers := make([]dist.Worker, nw)
			for i := range workers {
				workers[i] = &dist.InProcessWorker{}
			}
			cl, err := dist.NewClusterOpts(workers, dist.Options{})
			if err != nil {
				return nil, err
			}
			cfg := c.Cfg
			cfg.Evaluator = cl
			return runDS(c.DS, c.E, nil, cfg)
		}})
	}
	return plans
}

// TCPPlans enumerates Dist-PFor over real TCP workers served on ephemeral
// localhost ports, exercising the full gob-RPC serialization path. Workers
// are spun up and torn down per Run.
func TCPPlans(workerCounts ...int) []Plan {
	var plans []Plan
	for _, nw := range workerCounts {
		nw := nw
		plans = append(plans, Plan{Name: fmt.Sprintf("cluster/tcp-%d", nw), run: func(c *Case) (*core.Result, error) {
			listeners := make([]net.Listener, 0, nw)
			defer func() {
				for _, lis := range listeners {
					lis.Close()
				}
			}()
			addrs := make([]string, 0, nw)
			for i := 0; i < nw; i++ {
				lis, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					return nil, err
				}
				listeners = append(listeners, lis)
				srv, err := dist.NewServer(lis)
				if err != nil {
					return nil, err
				}
				go srv.Serve() //nolint:errcheck // lifetime bound to listener
				addrs = append(addrs, lis.Addr().String())
			}
			cl, err := dist.DialCluster(addrs, dist.Options{})
			if err != nil {
				return nil, err
			}
			defer cl.Close()
			cfg := c.Cfg
			cfg.Evaluator = cl
			return runDS(c.DS, c.E, nil, cfg)
		}})
	}
	return plans
}

// ChaosPlans enumerates Dist-PFor clusters with seeded fault injection: one
// clean worker plus faulty workers running the faults.Chaos profile, with
// deadlines, hedging and heartbeats enabled. Differentially comparing them
// against the fault-free plans asserts the self-healing runtime's core
// guarantee — faults change performance, never results. The fault pattern is
// a pure function of the plan's seed, so a differential failure reproduces
// from the case seed and plan name alone.
func ChaosPlans(seeds ...int64) []Plan {
	var plans []Plan
	for _, seed := range seeds {
		seed := seed
		plans = append(plans, Plan{Name: fmt.Sprintf("cluster/chaos-%d", seed), run: func(c *Case) (*core.Result, error) {
			workers := []dist.Worker{
				&dist.InProcessWorker{}, // always one clean exit
				faults.Wrap(&dist.InProcessWorker{}, faults.Seeded(seed, faults.Chaos)),
				faults.Wrap(&dist.InProcessWorker{}, faults.Seeded(seed+1000, faults.Chaos)),
			}
			cl, err := dist.NewClusterOpts(workers, dist.Options{
				CallTimeout:       500 * time.Millisecond,
				HedgeDelay:        50 * time.Millisecond,
				HeartbeatInterval: 25 * time.Millisecond,
				HeartbeatTimeout:  100 * time.Millisecond,
			})
			if err != nil {
				return nil, err
			}
			defer cl.Close()
			cfg := c.Cfg
			cfg.Evaluator = cl
			return runDS(c.DS, c.E, nil, cfg)
		}})
	}
	return plans
}

// ReferencePlan runs the literal materialized linear-algebra program of the
// paper (RunReference), the executable specification. It ignores weights
// and is only intended for small cases.
func ReferencePlan() Plan {
	return Plan{Name: "reference", run: func(c *Case) (*core.Result, error) {
		return core.RunReference(c.DS, c.E, c.Cfg)
	}}
}

// AllPlans is the full cross-backend matrix used by the main differential
// test: the builtin variants and in-process clusters. TCP plans are listed
// separately because of their per-run setup cost.
func AllPlans() []Plan {
	return append(BuiltinPlans(), ClusterPlans(1, 2, 4)...)
}
