package bench_test

import (
	"context"
	"testing"

	"sliceline/internal/bench"
	"sliceline/internal/core"
	"sliceline/internal/difftest"
	"sliceline/internal/frame"
)

// runCase runs core.Run over the case's encoding with cfg, failing the test
// on error.
func runCase(t *testing.T, c *difftest.Case, cfg core.Config) *core.Result {
	t.Helper()
	enc, err := frame.OneHot(c.DS)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), enc, c.DS.Features, c.E, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDenseIntermediatesMatchFused: the dense materialized program (the
// limited-sparsity ML-system model) must find the same top-K as the built-in
// fused kernels, within the cross-plan summation tolerance.
func TestDenseIntermediatesMatchFused(t *testing.T) {
	for _, seed := range difftest.Seeds(10) {
		c := difftest.Generate(seed, difftest.Defaults)
		fused := runCase(t, c, c.Cfg)
		cfg := c.Cfg
		cfg.Evaluator = &bench.DenseIntermediates{}
		dense := runCase(t, c, cfg)
		if err := difftest.CompareResults(fused, dense, difftest.Tol); err != nil {
			t.Fatalf("seed %d: dense vs fused: %v", seed, err)
		}
	}
}

// TestBarrierEvaluatorMatchesBuiltin: MT-Ops only adds barriers between
// blocks, so it must return the built-in plan's bits at every block size.
func TestBarrierEvaluatorMatchesBuiltin(t *testing.T) {
	for _, seed := range difftest.Seeds(10) {
		c := difftest.Generate(seed, difftest.Defaults)
		ref := runCase(t, c, c.Cfg)
		for _, b := range []int{0, 1, 16, 1 << 20} {
			cfg := c.Cfg
			cfg.Evaluator = &bench.BarrierEvaluator{BlockSize: b}
			got := runCase(t, c, cfg)
			if err := difftest.CompareAnnotated(ref, got); err != nil {
				t.Fatalf("seed %d block %d: MT-Ops vs builtin: %v", seed, b, err)
			}
		}
	}
}

func TestBarrierEvaluatorEvalBeforeSetup(t *testing.T) {
	for _, ev := range []core.ExternalEvaluator{&bench.BarrierEvaluator{}, &bench.CSREvaluator{}, &bench.DenseIntermediates{}} {
		if _, _, _, err := ev.Eval(context.Background(), []int32{0}, 1); err == nil {
			t.Errorf("%T: expected error for Eval before Setup", ev)
		}
	}
}
