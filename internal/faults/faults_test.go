package faults

import (
	"context"
	"errors"
	"testing"
	"time"

	"sliceline/internal/dist"
	"sliceline/internal/matrix"
)

func testPartition() (*matrix.CSR, []float64) {
	x := matrix.CSRFromDense(matrix.NewDenseData(4, 2, []float64{
		1, 0,
		0, 1,
		1, 0,
		0, 1,
	}))
	return x, []float64{1, 1, 1, 1}
}

// TestSeededDeterminism: the seeded schedule is a pure function of
// (seed, op, call) — two instances agree call by call, and a different seed
// produces a different fault pattern.
func TestSeededDeterminism(t *testing.T) {
	a := Seeded(7, Chaos)
	b := Seeded(7, Chaos)
	diff := Seeded(8, Chaos)
	same, differs := true, false
	for call := 0; call < 2000; call++ {
		for op := OpLoad; op < numOps; op++ {
			av, bv := a.action(op, call), b.action(op, call)
			if av != bv {
				same = false
			}
			if av != diff.action(op, call) {
				differs = true
			}
		}
	}
	if !same {
		t.Fatal("same seed produced different schedules")
	}
	if !differs {
		t.Fatal("different seeds produced identical schedules; profile not applied")
	}
}

// TestSeededProfileCoverage: over many calls the Chaos profile injects every
// fault kind at least once — the matrix is actually exercised.
func TestSeededProfileCoverage(t *testing.T) {
	s := Seeded(1, Chaos)
	seen := map[Kind]bool{}
	for call := 0; call < 5000; call++ {
		seen[s.action(OpEval, call).Kind] = true
	}
	for _, k := range []Kind{None, Delay, Hang, CrashBefore, CrashAfter, ShortReply, CorruptReply} {
		if !seen[k] {
			t.Errorf("kind %v never drawn in 5000 calls", k)
		}
	}
}

// TestExplicitScheduleFaults: each scripted kind manifests as the right
// observable behavior at the Worker interface.
func TestExplicitScheduleFaults(t *testing.T) {
	ctx := context.Background()
	x, e := testPartition()
	cols := [][]int{{0}, {1}}

	load := func(w *Worker) error { return w.Load(ctx, 0, x, e) }

	t.Run("crash-before", func(t *testing.T) {
		w := Wrap(&dist.InProcessWorker{}, NewSchedule().On(OpEval, 0, Action{Kind: CrashBefore}))
		if err := load(w); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := w.Eval(ctx, 0, cols, 1); !errors.Is(err, ErrInjected) {
			t.Fatalf("want ErrInjected, got %v", err)
		}
		// The next call is fault-free.
		ss, _, _, err := w.Eval(ctx, 0, cols, 1)
		if err != nil || ss[0] != 2 {
			t.Fatalf("recovery call: ss=%v err=%v", ss, err)
		}
	})

	t.Run("crash-after-executes", func(t *testing.T) {
		inner := &dist.InProcessWorker{}
		w := Wrap(inner, NewSchedule().On(OpLoad, 0, Action{Kind: CrashAfter}))
		if err := load(w); !errors.Is(err, ErrInjected) {
			t.Fatalf("want ErrInjected, got %v", err)
		}
		// The load executed despite the reported crash: Eval on the inner
		// worker succeeds without a reload.
		if _, _, _, err := inner.Eval(ctx, 0, cols, 1); err != nil {
			t.Fatalf("partition was not actually loaded: %v", err)
		}
	})

	t.Run("short-reply", func(t *testing.T) {
		w := Wrap(&dist.InProcessWorker{}, NewSchedule().On(OpEval, 0, Action{Kind: ShortReply}))
		if err := load(w); err != nil {
			t.Fatal(err)
		}
		ss, _, _, err := w.Eval(ctx, 0, cols, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ss) != 1 {
			t.Fatalf("short reply returned %d stats for %d candidates", len(ss), len(cols))
		}
	})

	t.Run("corrupt-reply", func(t *testing.T) {
		w := Wrap(&dist.InProcessWorker{}, NewSchedule().On(OpEval, 0, Action{Kind: CorruptReply}))
		if err := load(w); err != nil {
			t.Fatal(err)
		}
		ss, se, _, err := w.Eval(ctx, 0, cols, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ss[0] == ss[0] && se[len(se)-1] >= 0 { // NaN != NaN
			t.Fatalf("reply not corrupted: ss=%v se=%v", ss, se)
		}
	})

	t.Run("hang-respects-context", func(t *testing.T) {
		w := Wrap(&dist.InProcessWorker{}, NewSchedule().On(OpEval, 0, Action{Kind: Hang}))
		if err := load(w); err != nil {
			t.Fatal(err)
		}
		hctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, _, _, err := w.Eval(hctx, 0, cols, 1)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want DeadlineExceeded, got %v", err)
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("hang did not release on context expiry")
		}
	})

	t.Run("delay", func(t *testing.T) {
		w := Wrap(&dist.InProcessWorker{}, NewSchedule().On(OpEval, 0, Action{Kind: Delay, Delay: 30 * time.Millisecond}))
		if err := load(w); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, _, _, err := w.Eval(ctx, 0, cols, 1); err != nil {
			t.Fatal(err)
		}
		if time.Since(start) < 25*time.Millisecond {
			t.Fatal("delay was not applied")
		}
	})

	t.Run("ping-fault", func(t *testing.T) {
		w := Wrap(&dist.InProcessWorker{}, NewSchedule().On(OpPing, 0, Action{Kind: CrashBefore}))
		if err := w.Ping(ctx); !errors.Is(err, ErrInjected) {
			t.Fatalf("want ErrInjected, got %v", err)
		}
		if err := w.Ping(ctx); err != nil {
			t.Fatalf("second ping should be clean, got %v", err)
		}
	})
}

// TestCallCounting: call indices advance per operation independently.
func TestCallCounting(t *testing.T) {
	ctx := context.Background()
	x, e := testPartition()
	w := Wrap(&dist.InProcessWorker{}, nil)
	if err := w.Load(ctx, 0, x, e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, _, err := w.Eval(ctx, 0, [][]int{{0}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Calls(OpLoad); got != 1 {
		t.Fatalf("Load calls = %d, want 1", got)
	}
	if got := w.Calls(OpEval); got != 3 {
		t.Fatalf("Eval calls = %d, want 3", got)
	}
	if got := w.Calls(OpPing); got != 0 {
		t.Fatalf("Ping calls = %d, want 0", got)
	}
}
