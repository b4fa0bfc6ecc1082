// Chaos test matrix for the self-healing Dist-PFor runtime: every fault
// kind of internal/faults is injected into a live cluster and the run must
// produce top-K results identical to a fault-free cluster of the same
// shape. The file lives in package dist_test because faults wraps
// dist.Worker (importing faults from package dist would be a cycle).
package dist_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/dist"
	"sliceline/internal/faults"
	"sliceline/internal/fptol"
	"sliceline/internal/frame"
)

func chaosDataset(seed int64, n, m, maxDom int) (*frame.Dataset, []float64) {
	rng := rand.New(rand.NewSource(seed))
	ds := &frame.Dataset{
		Name:     "chaos",
		X0:       frame.NewIntMatrix(n, m),
		Features: make([]frame.Feature, m),
	}
	for j := 0; j < m; j++ {
		dom := 2 + rng.Intn(maxDom-1)
		ds.Features[j] = frame.Feature{Name: "f", Domain: dom}
		for i := 0; i < n; i++ {
			ds.X0.Set(i, j, 1+rng.Intn(dom))
		}
	}
	e := make([]float64, n)
	for i := range e {
		e[i] = rng.Float64()
	}
	return ds, e
}

// runDS runs core.Run over the one-hot encoding of ds.
func runDS(ds *frame.Dataset, e []float64, cfg core.Config) (*core.Result, error) {
	enc, err := frame.OneHot(ds)
	if err != nil {
		return nil, err
	}
	return core.Run(context.Background(), enc, ds.Features, e, nil, cfg)
}

// everyEval scripts the same fault on the first 500 Eval calls — from the
// driver's perspective the worker is persistently broken in this one way.
func everyEval(a faults.Action) *faults.Schedule {
	s := faults.NewSchedule()
	for i := 0; i < 500; i++ {
		s.On(faults.OpEval, i, a)
	}
	return s
}

// chaosRef runs the fault-free reference: the same dataset on a clean
// cluster with the same worker count, so the partition split — and thus the
// exact floating-point merge order — is identical.
func chaosRef(t *testing.T, ds *frame.Dataset, e []float64, cfg core.Config, workers int) *core.Result {
	t.Helper()
	ws := make([]dist.Worker, workers)
	for i := range ws {
		ws[i] = &dist.InProcessWorker{}
	}
	cl, err := dist.NewClusterOpts(ws, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Evaluator = cl
	ref, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestChaosMatrix: one faulty worker per fault kind; the run must complete
// and the top-K must be identical — not merely close — to the fault-free
// reference, because failover and hedging re-execute whole partitions on
// identical data and the merge is by partition order.
func TestChaosMatrix(t *testing.T) {
	ds, e := chaosDataset(30, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	const nWorkers = 3
	ref := chaosRef(t, ds, e, cfg, nWorkers)

	cases := []struct {
		name     string
		schedule *faults.Schedule
		opts     dist.Options
		budget   time.Duration // max wall clock; 0 = default 60s
	}{
		{
			name:     "delay",
			schedule: everyEval(faults.Action{Kind: faults.Delay, Delay: 5 * time.Millisecond}),
		},
		{
			name:     "hang-call-timeout",
			schedule: everyEval(faults.Action{Kind: faults.Hang}),
			opts:     dist.Options{CallTimeout: 300 * time.Millisecond},
			// Each hang burns at most two call timeouts before failover;
			// well under this budget, and infinitely under no deadline.
			budget: 30 * time.Second,
		},
		{
			name:     "hang-hedged",
			schedule: everyEval(faults.Action{Kind: faults.Hang}),
			opts:     dist.Options{HedgeDelay: 20 * time.Millisecond},
			budget:   30 * time.Second,
		},
		{
			name:     "crash-before",
			schedule: everyEval(faults.Action{Kind: faults.CrashBefore}),
		},
		{
			name:     "crash-after",
			schedule: everyEval(faults.Action{Kind: faults.CrashAfter}),
		},
		{
			name:     "short-reply",
			schedule: everyEval(faults.Action{Kind: faults.ShortReply}),
		},
		{
			name:     "corrupt-reply",
			schedule: everyEval(faults.Action{Kind: faults.CorruptReply}),
		},
		{
			name: "flappy",
			schedule: faults.NewSchedule().
				On(faults.OpEval, 0, faults.Action{Kind: faults.CrashBefore}).
				On(faults.OpEval, 2, faults.Action{Kind: faults.CrashBefore}).
				On(faults.OpEval, 4, faults.Action{Kind: faults.CrashBefore}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faulty := faults.Wrap(&dist.InProcessWorker{}, tc.schedule)
			workers := []dist.Worker{&dist.InProcessWorker{}, faulty, &dist.InProcessWorker{}}
			cl, err := dist.NewClusterOpts(workers, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.Evaluator = cl
			start := time.Now()
			got, err := runDS(ds, e, c)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			budget := tc.budget
			if budget == 0 {
				budget = 60 * time.Second
			}
			if elapsed > budget {
				t.Fatalf("chaos run took %v, deadline budget %v", elapsed, budget)
			}
			if faulty.Calls(faults.OpEval) == 0 {
				t.Fatal("faulty worker never evaluated; test exercised nothing")
			}
			if !reflect.DeepEqual(got.TopK, ref.TopK) {
				t.Fatalf("top-K under %s faults differs from fault-free reference:\n got %v\nwant %v",
					tc.name, got.TopK, ref.TopK)
			}
		})
	}
}

// TestChaosSeededSweep: two of three workers run a seeded pseudo-random
// fault profile mixing every kind. Whatever the interleaving, the result
// must be identical to the fault-free reference. Failures reproduce from
// the seed alone.
func TestChaosSeededSweep(t *testing.T) {
	ds, e := chaosDataset(31, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	const nWorkers = 3
	ref := chaosRef(t, ds, e, cfg, nWorkers)
	opts := dist.Options{
		CallTimeout:       500 * time.Millisecond,
		HedgeDelay:        50 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
	}
	for _, seed := range []int64{1, 7, 42} {
		workers := []dist.Worker{
			&dist.InProcessWorker{}, // worker 0 stays clean: the run must always have an exit
			faults.Wrap(&dist.InProcessWorker{}, faults.Seeded(seed, faults.Chaos)),
			faults.Wrap(&dist.InProcessWorker{}, faults.Seeded(seed+1000, faults.Chaos)),
		}
		cl, err := dist.NewClusterOpts(workers, opts)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Evaluator = cl
		got, err := runDS(ds, e, c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got.TopK, ref.TopK) {
			t.Fatalf("seed %d: top-K under seeded chaos differs from fault-free reference:\n got %v\nwant %v",
				seed, got.TopK, ref.TopK)
		}
		if err := cl.Close(); err != nil {
			t.Fatalf("seed %d: Close: %v", seed, err)
		}
	}
}

// TestChaosAdaptiveHedging: no timeouts at all — only the adaptive
// straggler detector (multiple of the level median) rescues a partition
// stuck behind a hanging worker.
func TestChaosAdaptiveHedging(t *testing.T) {
	ds, e := chaosDataset(32, 300, 3, 3)
	cfg := core.Config{K: 4, Sigma: 3, Alpha: 0.9}
	const nWorkers = 4
	ref := chaosRef(t, ds, e, cfg, nWorkers)
	faulty := faults.Wrap(&dist.InProcessWorker{}, everyEval(faults.Action{Kind: faults.Hang}))
	workers := []dist.Worker{
		&dist.InProcessWorker{}, faulty, &dist.InProcessWorker{}, &dist.InProcessWorker{},
	}
	cl, err := dist.NewClusterOpts(workers, dist.Options{HedgeMultiplier: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Evaluator = cl
	start := time.Now()
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("adaptive hedging took %v; the hang was not mitigated", elapsed)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("adaptive hedging top-K differs from reference:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
}

// TestChaosHeartbeatReships: a worker that dies completely between levels is
// detected by the background prober and its partitions move before the next
// Eval ever touches it.
func TestChaosHeartbeatReships(t *testing.T) {
	ds, e := chaosDataset(33, 300, 3, 3)
	cfg := core.Config{K: 4, Sigma: 3, Alpha: 0.9}
	ref := chaosRef(t, ds, e, cfg, 2)

	// The faulty worker answers Eval call 0 (level 1), then every later call
	// crashes — and its Pings start failing immediately, so the prober
	// should move its partition between levels.
	sched := faults.NewSchedule()
	for i := 1; i < 500; i++ {
		sched.On(faults.OpEval, i, faults.Action{Kind: faults.CrashBefore})
	}
	for i := 0; i < 10000; i++ {
		sched.On(faults.OpPing, i, faults.Action{Kind: faults.CrashBefore})
	}
	faulty := faults.Wrap(&dist.InProcessWorker{}, sched)
	cl, err := dist.NewClusterOpts([]dist.Worker{&dist.InProcessWorker{}, faulty}, dist.Options{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  50 * time.Millisecond,
		HeartbeatStrikes:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c := cfg
	c.Evaluator = cl
	// Give the prober time to strike out the worker between levels.
	c.OnLevel = func(core.LevelStats) { time.Sleep(60 * time.Millisecond) }
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("heartbeat re-ship top-K differs from reference:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
	if faulty.Calls(faults.OpPing) == 0 {
		t.Fatal("prober never pinged the worker; heartbeat did not run")
	}
}

// TestChaosMatchesBuiltinPlan: the chaos result must also match the builtin
// single-process plan within cross-plan float tolerance — guarding against
// the degenerate failure where both chaos and reference clusters are wrong
// the same way.
func TestChaosMatchesBuiltinPlan(t *testing.T) {
	ds, e := chaosDataset(34, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	builtin, err := runDS(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	faulty := faults.Wrap(&dist.InProcessWorker{}, faults.Seeded(99, faults.Chaos))
	cl, err := dist.NewClusterOpts([]dist.Worker{&dist.InProcessWorker{}, faulty}, dist.Options{
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Evaluator = cl
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.TopK) != len(builtin.TopK) {
		t.Fatalf("chaos returned %d slices, builtin %d", len(got.TopK), len(builtin.TopK))
	}
	for i := range got.TopK {
		if !fptol.DefaultTol.Close(got.TopK[i].Score, builtin.TopK[i].Score) {
			t.Fatalf("slice %d: chaos score %v vs builtin %v", i, got.TopK[i].Score, builtin.TopK[i].Score)
		}
	}
}

// TestChaosAllWorkersFaulty: when every worker persistently crashes, the
// run must fail with a clear error instead of hanging or silently dropping
// partitions.
func TestChaosAllWorkersFaulty(t *testing.T) {
	ds, e := chaosDataset(35, 200, 3, 3)
	crash := func() *faults.Schedule {
		s := faults.NewSchedule()
		for i := 0; i < 500; i++ {
			s.On(faults.OpEval, i, faults.Action{Kind: faults.CrashBefore})
		}
		return s
	}
	workers := []dist.Worker{
		faults.Wrap(&dist.InProcessWorker{}, crash()),
		faults.Wrap(&dist.InProcessWorker{}, crash()),
	}
	cl, err := dist.NewClusterOpts(workers, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{K: 4, Sigma: 3, Alpha: 0.9, Evaluator: cl}
	_, err = runDS(ds, e, cfg)
	if err == nil {
		t.Fatal("expected error when every worker is faulty")
	}
	// The winning goroutine reports the injected crash; a racing partition
	// may instead find every worker already marked dead.
	if !errors.Is(err, faults.ErrInjected) && !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("error should carry the injected cause or report worker exhaustion, got: %v", err)
	}
}

// TestChaosFlappyTransport: a TCP worker whose first connection tears the
// reply the driver is waiting for — a half-written gob frame, then a close —
// must be recovered by the bounded redial, and the run must match the
// fault-free reference exactly.
func TestChaosFlappyTransport(t *testing.T) {
	ds, e := chaosDataset(37, 300, 3, 3)
	cfg := core.Config{K: 4, Sigma: 3, Alpha: 0.9}
	ref := chaosRef(t, ds, e, cfg, 2)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flappy := &faults.Listener{Listener: lis, Scripts: []faults.ConnScript{
		// Write 1 is the Load reply and write 2 the level-2 Eval reply: the
		// driver waits on that Eval, so it must redial. Later conns are clean.
		{TearWrite: 2},
	}}
	srv, err := dist.NewServer(flappy)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // lifetime bound to Stop
	defer srv.Stop()

	w, err := dist.DialOpts(lis.Addr().String(), dist.DialOptions{
		MaxAttempts: 4,
		BaseBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cl, err := dist.NewClusterOpts([]dist.Worker{w, &dist.InProcessWorker{}}, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Evaluator = cl
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatalf("run over flappy transport: %v", err)
	}
	if flappy.Accepted() < 2 {
		t.Fatalf("only %d connections accepted; the flap never forced a redial", flappy.Accepted())
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("flappy-transport top-K differs from reference:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
}

// TestChaosCancellation: cancelling the run context mid-enumeration must
// abort promptly even while a worker hangs, and must surface the
// cancellation.
func TestChaosCancellation(t *testing.T) {
	ds, e := chaosDataset(36, 300, 4, 4)
	faulty := faults.Wrap(&dist.InProcessWorker{}, everyEval(faults.Action{Kind: faults.Hang}))
	cl, err := dist.NewClusterOpts([]dist.Worker{faulty}, dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	cfg := core.Config{K: 4, Sigma: 3, Alpha: 0.9, Evaluator: cl}
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = core.Run(ctx, enc, ds.Features, e, nil, cfg)
	if err == nil {
		t.Fatal("expected error from cancelled run")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error should carry the deadline cause, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; the hang leaked past the context", elapsed)
	}
}
