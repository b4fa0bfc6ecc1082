package dist

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"sliceline/internal/core"
	"sliceline/internal/matrix"
)

// flakyWorker wraps an InProcessWorker and starts failing after a trigger.
type flakyWorker struct {
	InProcessWorker
	dead bool
}

func (w *flakyWorker) Eval(ctx context.Context, part int, cands []byte, level int) ([]float64, []float64, []float64, error) {
	if w.dead {
		return nil, nil, nil, errors.New("injected worker crash")
	}
	return w.InProcessWorker.Eval(ctx, part, cands, level)
}

func (w *flakyWorker) Load(ctx context.Context, part int, x *matrix.CSR, e []float64) error {
	if w.dead {
		return errors.New("injected worker crash")
	}
	return w.InProcessWorker.Load(ctx, part, x, e)
}

func (w *flakyWorker) Ping(context.Context) error {
	if w.dead {
		return errors.New("injected worker crash")
	}
	return nil
}

// TestClusterFailoverMidRun: killing a worker after Setup must not change
// the result — its partition fails over to the surviving workers.
func TestClusterFailoverMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ds, e := randomDataset(rng, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref, err := runDS(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}

	w0 := &flakyWorker{}
	w1 := &flakyWorker{}
	w2 := &flakyWorker{}
	cl, err := NewClusterOpts([]Worker{w0, w1, w2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Drive Setup manually with a small matrix, then kill w1 and check
	// Eval still sums all partitions.
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
	w1.dead = true
	ss, se, _, err := cl.Eval(context.Background(), []int32{0, 1}, 1)
	if err != nil {
		t.Fatalf("failover Eval: %v", err)
	}
	if ss[0] != 3 || ss[1] != 3 {
		t.Fatalf("ss = %v, want [3 3] (all partitions counted)", ss)
	}
	if se[0] != 3 || se[1] != 3 {
		t.Fatalf("se = %v, want [3 3]", se)
	}

	// End-to-end: a fresh cluster where one worker dies right after Setup
	// still produces the exact reference result.
	wa, wb := &flakyWorker{}, &flakyWorker{}
	cl2, err := NewClusterOpts([]Worker{wa, wb}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Evaluator = &killAfterSetup{Cluster: cl2, victim: wb}
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if !equalScores(scores(got.TopK), scores(ref.TopK)) {
		t.Fatalf("failover scores %v differ from builtin %v", scores(got.TopK), scores(ref.TopK))
	}
}

// killAfterSetup kills the victim worker right after cluster setup.
type killAfterSetup struct {
	*Cluster
	victim *flakyWorker
}

func (k *killAfterSetup) Setup(ctx context.Context, x *matrix.CSR, e []float64) error {
	if err := k.Cluster.Setup(ctx, x, e); err != nil {
		return err
	}
	k.victim.dead = true
	return nil
}

// countdownWorker succeeds for a fixed number of Eval calls, then crashes —
// a worker dying mid-level, partway through an enumeration.
type countdownWorker struct {
	InProcessWorker
	callMu    sync.Mutex
	calls     int
	failAfter int
}

func (w *countdownWorker) Eval(ctx context.Context, part int, cands []byte, level int) ([]float64, []float64, []float64, error) {
	w.callMu.Lock()
	w.calls++
	crashed := w.calls > w.failAfter
	w.callMu.Unlock()
	if crashed {
		return nil, nil, nil, errors.New("injected crash mid-level")
	}
	return w.InProcessWorker.Eval(ctx, part, cands, level)
}

// TestClusterWorkerDeathMidLevel: a worker crashing in the middle of
// enumeration — after several successful evaluation rounds — must not change
// the result; its partition fails over and the run completes.
func TestClusterWorkerDeathMidLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds, e := randomDataset(rng, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref, err := runDS(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}

	victim := &countdownWorker{failAfter: 1}
	cl, err := NewClusterOpts([]Worker{victim, &flakyWorker{}, &flakyWorker{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Evaluator = cl
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if !equalScores(scores(got.TopK), scores(ref.TopK)) {
		t.Fatalf("mid-level failover scores %v differ from builtin %v", scores(got.TopK), scores(ref.TopK))
	}
	victim.callMu.Lock()
	crashed := victim.calls > victim.failAfter
	victim.callMu.Unlock()
	if !crashed {
		t.Fatalf("victim never reached its crash point (%d calls); test exercised nothing", victim.calls)
	}
	cl.mu.Lock()
	alive0 := cl.alive[0]
	cl.mu.Unlock()
	if alive0 {
		t.Fatal("crashed worker still marked alive")
	}
}

// shortWorker returns truncated statistic vectors — a worker replying with
// partial Eval results. The cluster must treat it like a crash: folding
// short vectors into the aggregate would silently corrupt every statistic.
type shortWorker struct {
	InProcessWorker
}

func (w *shortWorker) Eval(ctx context.Context, part int, cands []byte, level int) ([]float64, []float64, []float64, error) {
	ss, se, sm, err := w.InProcessWorker.Eval(ctx, part, cands, level)
	if err != nil {
		return nil, nil, nil, err
	}
	half := len(ss) / 2
	return ss[:half], se[:half], sm[:half], nil
}

// TestClusterPartialResultsFailover: unit-level check that a short reply
// fails over to a healthy worker and the aggregate stays correct.
func TestClusterPartialResultsFailover(t *testing.T) {
	bad := &shortWorker{}
	good := &flakyWorker{}
	cl, err := NewClusterOpts([]Worker{bad, good}, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	ss, se, _, err := cl.Eval(context.Background(), []int32{0, 1}, 1)
	if err != nil {
		t.Fatalf("partial-result failover Eval: %v", err)
	}
	if ss[0] != 3 || ss[1] != 3 || se[0] != 3 || se[1] != 3 {
		t.Fatalf("ss = %v, se = %v, want [3 3] each (short reply must not corrupt the aggregate)", ss, se)
	}
	cl.mu.Lock()
	alive0 := cl.alive[0]
	cl.mu.Unlock()
	if alive0 {
		t.Fatal("partial-result worker still marked alive")
	}
}

// TestClusterPartialResultsEndToEnd: a full run with a partial-result worker
// in the cluster must still match the builtin plan exactly.
func TestClusterPartialResultsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ds, e := randomDataset(rng, 300, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref, err := runDS(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClusterOpts([]Worker{&shortWorker{}, &flakyWorker{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Evaluator = cl
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if !equalScores(scores(got.TopK), scores(ref.TopK)) {
		t.Fatalf("partial-result run scores %v differ from builtin %v", scores(got.TopK), scores(ref.TopK))
	}
}

// TestClusterReloadsAmnesiacWorker: a worker that lost its partitions but
// still answers (the in-process analogue of a restarted process) must be
// reloaded in place and stay in the rotation, not fail over.
func TestClusterReloadsAmnesiacWorker(t *testing.T) {
	w0 := &InProcessWorker{}
	cl, err := NewClusterOpts([]Worker{w0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.CSRFromDense(matrix.NewDenseData(4, 1, []float64{1, 1, 0, 1}))
	if err := cl.Setup(context.Background(), x, []float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate the restart: the worker forgets every partition.
	w0.svc.mu.Lock()
	w0.svc.parts = nil
	w0.svc.mu.Unlock()
	ss, se, _, err := cl.Eval(context.Background(), []int32{0}, 1)
	if err != nil {
		t.Fatalf("Eval after amnesia: %v", err)
	}
	if ss[0] != 3 || se[0] != 3 {
		t.Fatalf("ss=%v se=%v, want 3 each after in-place reload", ss, se)
	}
	cl.mu.Lock()
	alive0 := cl.alive[0]
	cl.mu.Unlock()
	if !alive0 {
		t.Fatal("reloaded worker marked dead; in-place recovery did not happen")
	}
}

// TestInProcessWorkerRejectsMalformedLoad: the in-process worker runs the
// TCP worker's checks, so an error vector shorter than the partition fails
// the Load instead of a later Eval indexing past its end.
func TestInProcessWorkerRejectsMalformedLoad(t *testing.T) {
	w := &InProcessWorker{}
	x := matrix.CSRFromDense(matrix.NewDenseData(4, 1, []float64{1, 1, 0, 1}))
	if err := w.Load(context.Background(), 0, x, []float64{1, 1, 1}); err == nil {
		t.Fatal("Load with 3 errors for 4 rows: want error")
	}
	if parts, _ := w.Parts(context.Background()); len(parts) != 0 {
		t.Fatalf("rejected Load left partitions %v", parts)
	}
}

// restartServer rebinds a worker server on the exact address it previously
// occupied, retrying briefly in case the OS has not released the port yet.
func restartServer(t *testing.T, addr string) *Server {
	t.Helper()
	var lis net.Listener
	var err error
	for i := 0; i < 100; i++ {
		lis, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	srv, err := NewServer(lis)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // lifetime bound to Stop
	return srv
}

// TestTCPWorkerRestartReconnect: a single-worker TCP cluster — no failover
// target exists — survives the worker being killed and restarted on the same
// address. RemoteWorker must redial, and the cluster must reload the lost
// partition in place.
func TestTCPWorkerRestartReconnect(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // lifetime bound to Stop
	addr := lis.Addr().String()

	w, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cl, err := NewClusterOpts([]Worker{w}, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	if _, _, _, err := cl.Eval(context.Background(), []int32{0, 1}, 1); err != nil {
		t.Fatalf("Eval before restart: %v", err)
	}

	// Kill the worker process and restart it on the same address: the new
	// server has no partitions.
	srv.Stop()
	srv2 := restartServer(t, addr)
	defer srv2.Stop()

	ss, se, _, err := cl.Eval(context.Background(), []int32{0, 1}, 1)
	if err != nil {
		t.Fatalf("Eval after restart: %v (reconnect + reload should recover)", err)
	}
	if ss[0] != 3 || ss[1] != 3 || se[0] != 3 || se[1] != 3 {
		t.Fatalf("ss = %v, se = %v after restart, want [3 3] each", ss, se)
	}
	cl.mu.Lock()
	alive0 := cl.alive[0]
	cl.mu.Unlock()
	if !alive0 {
		t.Fatal("restarted worker marked dead; reconnect did not keep it in rotation")
	}
}

// TestTCPWorkerRestartMidRun: end-to-end — a TCP worker is killed and
// restarted between lattice levels of a live run. The run must complete with
// results matching the builtin plan, and the worker must remain alive.
func TestTCPWorkerRestartMidRun(t *testing.T) {
	lis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv0, err := NewServer(lis0)
	if err != nil {
		t.Fatal(err)
	}
	go srv0.Serve() //nolint:errcheck // lifetime bound to Stop
	addr0 := lis0.Addr().String()

	addrs, shutdown := startWorkers(t, 1)
	defer shutdown()

	w0, err := Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w1, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	cl, err := NewClusterOpts([]Worker{w0, w1}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(13))
	ds, e := randomDataset(rng, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref, err := runDS(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var srv0b *Server
	restarted := false
	c := cfg
	c.Evaluator = cl
	c.OnLevel = func(ls core.LevelStats) {
		if restarted || ls.Level != 1 {
			return
		}
		restarted = true
		srv0.Stop()
		srv0b = restartServer(t, addr0)
	}
	got, err := runDS(ds, e, c)
	if srv0b != nil {
		defer srv0b.Stop()
	}
	if err != nil {
		t.Fatalf("run with mid-run restart: %v", err)
	}
	if !restarted {
		t.Fatal("restart hook never fired; test exercised nothing")
	}
	if !equalScores(scores(got.TopK), scores(ref.TopK)) {
		t.Fatalf("mid-run restart scores %v differ from builtin %v", scores(got.TopK), scores(ref.TopK))
	}
	cl.mu.Lock()
	alive0 := cl.alive[0]
	cl.mu.Unlock()
	if !alive0 {
		t.Fatal("restarted worker marked dead after run")
	}
}

// TestTCPWorkerDeathMidRunFailsOver: end-to-end — a TCP worker dies between
// lattice levels and never comes back. The run must fail over to the
// surviving worker and still match the builtin plan.
func TestTCPWorkerDeathMidRunFailsOver(t *testing.T) {
	lis0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv0, err := NewServer(lis0)
	if err != nil {
		t.Fatal(err)
	}
	go srv0.Serve() //nolint:errcheck // lifetime bound to Stop

	addrs, shutdown := startWorkers(t, 1)
	defer shutdown()

	w0, err := Dial(lis0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w1, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	cl, err := NewClusterOpts([]Worker{w0, w1}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(14))
	ds, e := randomDataset(rng, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref, err := runDS(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}

	killed := false
	c := cfg
	c.Evaluator = cl
	c.OnLevel = func(ls core.LevelStats) {
		if !killed && ls.Level == 1 {
			killed = true
			srv0.Stop()
		}
	}
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatalf("run with mid-run death: %v", err)
	}
	if !killed {
		t.Fatal("kill hook never fired; test exercised nothing")
	}
	if !equalScores(scores(got.TopK), scores(ref.TopK)) {
		t.Fatalf("mid-run death scores %v differ from builtin %v", scores(got.TopK), scores(ref.TopK))
	}
	cl.mu.Lock()
	alive0 := cl.alive[0]
	cl.mu.Unlock()
	if alive0 {
		t.Fatal("dead worker still marked alive after run")
	}
}

// TestClusterAllWorkersDead: when every worker is gone the error must
// surface.
func TestClusterAllWorkersDead(t *testing.T) {
	w0 := &flakyWorker{}
	cl, err := NewClusterOpts([]Worker{w0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.CSRFromDense(matrix.NewDenseData(2, 1, []float64{1, 1}))
	if err := cl.Setup(context.Background(), x, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	w0.dead = true
	if _, _, _, err := cl.Eval(context.Background(), []int32{0}, 1); err == nil {
		t.Fatal("expected error when all workers are dead")
	}
}

// recordingWorker wraps an InProcessWorker and records the backing array of
// every Eval's candidate bytes. Its first failEvals Evals fail, every call
// fails once dead is set, and its first Eval stalls for stall (or until its
// context ends) before evaluating.
type recordingWorker struct {
	InProcessWorker
	mu        sync.Mutex
	arrays    []*byte
	failEvals int
	dead      bool
	stall     time.Duration
}

func (w *recordingWorker) Eval(ctx context.Context, part int, cands []byte, level int) ([]float64, []float64, []float64, error) {
	w.mu.Lock()
	w.arrays = append(w.arrays, unsafe.SliceData(cands))
	fail := w.dead || w.failEvals > 0
	w.failEvals--
	stall := w.stall
	w.stall = 0
	w.mu.Unlock()
	if fail {
		return nil, nil, nil, errors.New("injected eval failure")
	}
	select {
	case <-time.After(stall):
	case <-ctx.Done():
		return nil, nil, nil, ctx.Err()
	}
	return w.InProcessWorker.Eval(ctx, part, cands, level)
}

func (w *recordingWorker) Load(ctx context.Context, part int, x *matrix.CSR, e []float64) error {
	w.mu.Lock()
	dead := w.dead
	w.mu.Unlock()
	if dead {
		return errors.New("injected load failure")
	}
	return w.InProcessWorker.Load(ctx, part, x, e)
}

// TestClusterEncodesLevelOnce: a level's candidates are encoded into the
// wire's bytes once, and every Eval of the level — the partition calls, an
// in-place reload retry, a failover and a hedge — receives that one array.
func TestClusterEncodesLevelOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const rows, cols = 30, 4
	data := make([]float64, rows*cols)
	e := make([]float64, rows)
	for i := 0; i < rows; i++ {
		data[i*cols+rng.Intn(2)] = 1
		data[i*cols+2+rng.Intn(2)] = 1
		e[i] = float64(rng.Intn(2))
	}
	x := matrix.CSRFromDense(matrix.NewDenseData(rows, cols, data))
	// Worker 0 fails its first Eval and is reloaded in place, worker 1 dies
	// after Setup and its partition fails over, and worker 2 straggles, so
	// its partition is hedged.
	ws := []*recordingWorker{{failEvals: 1}, {}, {stall: 10 * time.Second}}
	var mu sync.Mutex
	seen := map[DecisionKind]bool{}
	cl, err := NewClusterOpts([]Worker{ws[0], ws[1], ws[2]}, Options{
		HedgeDelay: 20 * time.Millisecond,
		OnDecision: func(d Decision) {
			mu.Lock()
			seen[d.Kind] = true
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Setup(context.Background(), x, e); err != nil {
		t.Fatal(err)
	}
	ws[1].mu.Lock()
	ws[1].dead = true
	ws[1].mu.Unlock()
	ids := []int32{0, 2, 0, 3, 1, 2, 1, 3}
	ss, se, sm, err := cl.Eval(context.Background(), ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantSS, wantSE, wantSM := make([]float64, 4), make([]float64, 4), make([]float64, 4)
	core.NewKernel(x, e, nil).Eval(ids, 2, wantSS, wantSE, wantSM)
	if !reflect.DeepEqual(ss, wantSS) || !reflect.DeepEqual(se, wantSE) || !reflect.DeepEqual(sm, wantSM) {
		t.Fatalf("Eval = (%v, %v, %v), want (%v, %v, %v)", ss, se, sm, wantSS, wantSE, wantSM)
	}
	for _, k := range []DecisionKind{DecideRetryInPlace, DecideFailover, DecideHedge} {
		if !seen[k] {
			t.Fatalf("the level took no %v decision; decisions %v", k, seen)
		}
	}
	var arrays []*byte
	for _, w := range ws {
		w.mu.Lock()
		arrays = append(arrays, w.arrays...)
		w.mu.Unlock()
	}
	// Three partition calls, the retry on worker 0, the failover's call and
	// the hedge's.
	if len(arrays) < 6 {
		t.Fatalf("%d Eval calls, want at least 6", len(arrays))
	}
	for i, a := range arrays {
		if a != arrays[0] {
			t.Fatalf("Eval call %d received candidate array %p, call 0 %p: the level was encoded more than once", i, a, arrays[0])
		}
	}
}
