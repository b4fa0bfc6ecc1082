package sim

import (
	"context"
	"sync"
	"testing"
	"time"

	"sliceline/internal/dist"
	"sliceline/internal/faults"
	"sliceline/internal/matrix"
)

// The fidelity tests run the same fault script twice — once through a real
// in-process dist.Cluster (wall clock, goroutines, the faults chaos wrapper)
// and once through the simulator (virtual time) — and require the two
// scheduling-decision streams to be identical. This is the load-bearing
// guarantee of internal/sim: both sides execute the same policy code
// (HedgePolicy, ProbeStep, NextLiveWorker, ReshipPlan), so a knob tuned in
// simulation means the same thing on the TCP runtime.

// realDecisions runs one level evaluation on a real in-process cluster with
// sched wrapped around worker `faulty`, and returns the decision stream.
func realDecisions(t *testing.T, nWorkers int, sched map[int]*faults.Schedule, opts dist.Options, evalRows int) []dist.Decision {
	t.Helper()
	var mu sync.Mutex
	var ds []dist.Decision
	opts.OnDecision = func(d dist.Decision) {
		mu.Lock()
		ds = append(ds, d)
		mu.Unlock()
	}
	workers := make([]dist.Worker, nWorkers)
	for i := range workers {
		var w dist.Worker = &dist.InProcessWorker{}
		if s, ok := sched[i]; ok {
			w = faults.Wrap(w, s)
		}
		workers[i] = w
	}
	cl, err := dist.NewClusterOpts(workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dense := make([]float64, evalRows)
	ev := make([]float64, evalRows)
	for i := range dense {
		dense[i] = 1
		ev[i] = 1
	}
	x := matrix.CSRFromDense(matrix.NewDenseData(evalRows, 1, dense))
	if err := cl.Setup(context.Background(), x, ev); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.Eval(context.Background(), [][]int{{0}}, 1); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	mu.Lock()
	defer mu.Unlock()
	return ds
}

// simDecisions runs the equivalent scenario through the simulator.
func simDecisions(t *testing.T, sc Scenario, k Knobs) []dist.Decision {
	t.Helper()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	res := Run(sc, k)
	if res.Err != "" {
		t.Fatalf("sim run failed: %s", res.Err)
	}
	return res.Decisions
}

func requireSameDecisions(t *testing.T, real, sim []dist.Decision) {
	t.Helper()
	if len(real) != len(sim) {
		t.Fatalf("decision streams differ:\nreal: %v\nsim:  %v", real, sim)
	}
	for i := range real {
		if real[i] != sim[i] {
			t.Fatalf("decision %d differs: real %v, sim %v\nreal: %v\nsim:  %v",
				i, real[i], sim[i], real, sim)
		}
	}
}

// fidelityScenario is the shared scaffolding: N workers, N partitions, one
// row per partition region, negligible latency and service cost so only the
// scripted faults shape the timeline.
func fidelityScenario(workers int, script []ScriptRule) Scenario {
	return Scenario{
		SchemaVersion: 1,
		Name:          "fidelity",
		Seed:          1,
		Workers:       workers,
		Partitions:    workers,
		Rows:          2 * workers,
		BytesPerRow:   8,
		BandwidthMBps: 1000,
		Levels:        []int{1},
		Topology:      Topology{Kind: "star", LocalMS: Dist{Value: 0.05}},
		Service:       Service{PerPairNS: Dist{Value: 1000}},
		Faults:        &FaultPlan{Script: script},
	}
}

// TestFidelityFailover: worker 1's partition crashes on eval, the in-place
// reload crashes too, so the partition fails over to worker 0. Both sides
// must report exactly [retry-in-place p1 w1, failover p1 w1→w0].
func TestFidelityFailover(t *testing.T) {
	sched := faults.NewSchedule().
		On(faults.OpEval, 0, faults.Action{Kind: faults.CrashBefore}).
		On(faults.OpLoad, 1, faults.Action{Kind: faults.CrashBefore})
	real := realDecisions(t, 3, map[int]*faults.Schedule{1: sched}, dist.Options{}, 6)

	sim := simDecisions(t, fidelityScenario(3, []ScriptRule{
		{Worker: 1, Op: "eval", Call: 0, Kind: "crash-before"},
		{Worker: 1, Op: "load", Call: 1, Kind: "crash-before"},
	}), Knobs{CallTimeoutMS: 2000})

	want := []dist.Decision{
		{Kind: dist.DecideRetryInPlace, Part: 1, Worker: 1, Target: -1},
		{Kind: dist.DecideFailover, Part: 1, Worker: 1, Target: 0},
	}
	requireSameDecisions(t, real, want)
	requireSameDecisions(t, real, sim)
}

// TestFidelityHedge: worker 1 straggles 300ms on its partition; with a 30ms
// fixed hedge threshold the duplicate runs on worker 0 and wins. Both sides
// must report exactly [hedge p1 w1, hedge-win p1 w0].
func TestFidelityHedge(t *testing.T) {
	sched := faults.NewSchedule().
		On(faults.OpEval, 0, faults.Action{Kind: faults.Delay, Delay: 300 * time.Millisecond})
	real := realDecisions(t, 2, map[int]*faults.Schedule{1: sched}, dist.Options{
		HedgeDelay: 30 * time.Millisecond,
	}, 4)

	sim := simDecisions(t, fidelityScenario(2, []ScriptRule{
		{Worker: 1, Op: "eval", Call: 0, Kind: "delay", DelayMS: 300},
	}), Knobs{CallTimeoutMS: 2000, HedgeAfterMS: 30})

	want := []dist.Decision{
		{Kind: dist.DecideHedge, Part: 1, Worker: 1, Target: -1},
		{Kind: dist.DecideHedgeWin, Part: 1, Worker: 0, Target: -1},
	}
	requireSameDecisions(t, real, want)
	requireSameDecisions(t, real, sim)
}

// TestFidelityEviction: worker 1 answers its eval but then goes silent on
// every probe while worker 0 pins the level open; two 20ms strikes later the
// heartbeat evicts it and proactively re-ships its partition. Both sides
// must report exactly [evict w1 strikes=2, reship p1 w1→w0].
func TestFidelityEviction(t *testing.T) {
	w0 := faults.NewSchedule().
		On(faults.OpEval, 0, faults.Action{Kind: faults.Delay, Delay: 250 * time.Millisecond})
	w1 := faults.NewSchedule()
	for call := 0; call < 20; call++ {
		w1.On(faults.OpPing, call, faults.Action{Kind: faults.CrashBefore})
	}
	real := realDecisions(t, 2, map[int]*faults.Schedule{0: w0, 1: w1}, dist.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatStrikes:  2,
	}, 4)

	script := []ScriptRule{
		{Worker: 0, Op: "eval", Call: 0, Kind: "delay", DelayMS: 250},
	}
	for call := 0; call < 20; call++ {
		script = append(script, ScriptRule{Worker: 1, Op: "ping", Call: call, Kind: "crash-before"})
	}
	sim := simDecisions(t, fidelityScenario(2, script), Knobs{
		CallTimeoutMS: 2000, HeartbeatMS: 20, Strikes: 2,
	})

	want := []dist.Decision{
		{Kind: dist.DecideEvict, Part: -1, Worker: 1, Target: -1, Strikes: 2},
		{Kind: dist.DecideReship, Part: 1, Worker: 1, Target: 0},
	}
	requireSameDecisions(t, real, want)
	requireSameDecisions(t, real, sim)
}
