package dist

import (
	"context"
	"errors"
	"sync"
	"testing"

	"sliceline/internal/matrix"
	"sliceline/internal/obs"
)

// pingFlakyWorker evaluates normally but fails Ping on demand — a worker
// whose data path is healthy while its control path looks partitioned.
type pingFlakyWorker struct {
	InProcessWorker
	mu       sync.Mutex
	failPing bool
	pings    int
}

func (w *pingFlakyWorker) Ping(context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pings++
	if w.failPing {
		return errors.New("injected ping failure")
	}
	return nil
}

func (w *pingFlakyWorker) setFailPing(v bool) {
	w.mu.Lock()
	w.failPing = v
	w.mu.Unlock()
}

// setupTiny ships the canonical 6x2 matrix (3 rows in each column) so Eval
// sums are known constants: ss = se = [3 3] for candidates {0} and {1}.
func setupTiny(t *testing.T, cl *Cluster) {
	t.Helper()
	x := matrix.CSRFromDense(matrix.NewDenseData(6, 2, []float64{
		1, 0,
		1, 0,
		0, 1,
		0, 1,
		1, 0,
		0, 1,
	}))
	ev := []float64{1, 1, 1, 1, 1, 1}
	if err := cl.Setup(context.Background(), x, ev); err != nil {
		t.Fatal(err)
	}
}

func (c *Cluster) aliveAt(wi int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alive[wi]
}

// TestHeartbeatStrikeResetOnProbeSuccess: one successful probe must clear the
// strike count entirely — otherwise an intermittently slow worker accumulates
// strikes across unrelated blips and is eventually evicted for no reason.
func TestHeartbeatStrikeResetOnProbeSuccess(t *testing.T) {
	reg := obs.NewRegistry()
	w1 := &pingFlakyWorker{}
	cl, err := NewClusterOpts([]Worker{&InProcessWorker{}, w1}, Options{
		HeartbeatStrikes: 2,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupTiny(t, cl)

	w1.setFailPing(true)
	cl.probeAll(nil) // strike 1 of 2: still alive
	if !cl.aliveAt(1) {
		t.Fatal("worker evicted after a single strike with HeartbeatStrikes=2")
	}
	w1.setFailPing(false)
	cl.probeAll(nil) // success: strikes reset to 0
	w1.setFailPing(true)
	cl.probeAll(nil) // strike 1 again — would be strike 2 (eviction) without the reset
	if !cl.aliveAt(1) {
		t.Fatal("one successful probe did not reset the strike count")
	}
	if n := reg.Counter("sl_dist_evictions_total", "").Value(); n != 0 {
		t.Fatalf("evictions = %d before the strike budget was consumed", n)
	}
	cl.probeAll(nil) // strike 2: now the eviction is earned
	if cl.aliveAt(1) {
		t.Fatal("worker survived HeartbeatStrikes consecutive failed probes")
	}
	if n := reg.Counter("sl_dist_evictions_total", "").Value(); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
}

// TestHeartbeatEvictionRacesEvalCompletion: the prober evicting a worker
// while Evals are completing on it must never corrupt results — partitions
// re-ship, in-flight winners still merge, and every Eval sums all rows.
// Run under -race this also proves the bookkeeping is data-race-free.
func TestHeartbeatEvictionRacesEvalCompletion(t *testing.T) {
	reg := obs.NewRegistry()
	w1 := &pingFlakyWorker{}
	cl, err := NewClusterOpts([]Worker{&InProcessWorker{}, w1}, Options{
		HeartbeatStrikes: 1,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupTiny(t, cl)

	w1.setFailPing(true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cl.probeAll(nil)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		ss, se, _, err := cl.Eval(context.Background(), []int32{0, 1}, 1)
		if err != nil {
			t.Errorf("eval %d during eviction: %v", i, err)
			break
		}
		if ss[0] != 3 || ss[1] != 3 || se[0] != 3 || se[1] != 3 {
			t.Errorf("eval %d: ss=%v se=%v, want [3 3] each (a partition was dropped)", i, ss, se)
			break
		}
	}
	close(stop)
	wg.Wait()
	if n := reg.Counter("sl_dist_evictions_total", "").Value(); n == 0 {
		t.Fatal("prober never evicted the ping-dead worker; the race was not exercised")
	}
}

// TestHeartbeatResurrectsLastWorker: with every worker struck out the cluster
// errors plainly, and the moment the sole worker answers a probe again it is
// resurrected — its partitions were never reassigned (there was nowhere to
// go), so the next Eval works immediately.
func TestHeartbeatResurrectsLastWorker(t *testing.T) {
	reg := obs.NewRegistry()
	w := &pingFlakyWorker{}
	cl, err := NewClusterOpts([]Worker{w}, Options{
		HeartbeatStrikes: 1,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	setupTiny(t, cl)

	w.setFailPing(true)
	cl.probeAll(nil)
	if cl.aliveAt(0) {
		t.Fatal("sole worker still alive after a failed probe with HeartbeatStrikes=1")
	}
	if _, _, _, err := cl.Eval(context.Background(), []int32{0}, 1); err == nil {
		t.Fatal("Eval succeeded with every worker dead")
	}

	w.setFailPing(false)
	cl.probeAll(nil)
	if !cl.aliveAt(0) {
		t.Fatal("successful probe did not resurrect the last worker")
	}
	if n := reg.Counter("sl_dist_resurrections_total", "").Value(); n != 1 {
		t.Fatalf("resurrections = %d, want 1", n)
	}
	ss, se, _, err := cl.Eval(context.Background(), []int32{0, 1}, 1)
	if err != nil {
		t.Fatalf("Eval after resurrection: %v", err)
	}
	if ss[0] != 3 || ss[1] != 3 || se[0] != 3 || se[1] != 3 {
		t.Fatalf("post-resurrection ss=%v se=%v, want [3 3] each", ss, se)
	}
}
