package dist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sliceline/internal/core"
	"sliceline/internal/fptol"
	"sliceline/internal/frame"
	"sliceline/internal/matrix"
	"sliceline/internal/membership"
	"sliceline/internal/obs"
)

func randomDataset(rng *rand.Rand, n, m, maxDom int) (*frame.Dataset, []float64) {
	ds := &frame.Dataset{
		Name:     "rand",
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

func scores(slices []core.Slice) []float64 {
	out := make([]float64, len(slices))
	for i, s := range slices {
		out[i] = s.Score
	}
	return out
}

// equalScores compares rank-aligned scores under the shared cross-plan
// tolerance: scores are order-dependent summations, so plans may differ in
// the last ULPs (see internal/fptol for the derivation).
func equalScores(a, b []float64) bool {
	return fptol.DefaultTol.CloseSlices(a, b)
}

func TestInProcessClusterMatchesBuiltin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds, e := randomDataset(rng, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref, err := runDS(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, nWorkers := range []int{1, 2, 4, 7} {
		workers := make([]Worker, nWorkers)
		for i := range workers {
			workers[i] = &InProcessWorker{}
		}
		cl, err := NewClusterOpts(workers, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Evaluator = cl
		got, err := runDS(ds, e, c)
		if err != nil {
			t.Fatalf("%d workers: %v", nWorkers, err)
		}
		if !equalScores(scores(got.TopK), scores(ref.TopK)) {
			t.Fatalf("%d workers: scores %v differ from builtin %v", nWorkers, scores(got.TopK), scores(ref.TopK))
		}
	}
}

// allocatedBytes returns the fewest bytes any of three calls of f allocated.
func allocatedBytes(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for r := 0; r < 3; r++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestSetupCopiesNoIds: Setup cuts each partition as a row-range view of X,
// so shipping X to in-process workers allocates less than one copy of its
// one-hot ids.
func TestSetupCopiesNoIds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds, e := randomDataset(rng, 4096, 8, 4)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClusterOpts([]Worker{&InProcessWorker{}, &InProcessWorker{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got := allocatedBytes(func() {
		if err := cl.Setup(context.Background(), enc.X, e); err != nil {
			t.Fatal(err)
		}
	})
	if idBytes := uint64(8 * enc.X.NNZ()); got >= idBytes {
		t.Fatalf("Setup allocated %d bytes, want less than one copy of the ids (%d bytes)", got, idBytes)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewClusterOpts(nil, Options{}); err == nil {
		t.Fatal("expected error for empty cluster")
	}
}

func TestWorkerEvalBeforeLoad(t *testing.T) {
	w := &InProcessWorker{}
	if _, _, _, err := w.Eval(context.Background(), 0, [][]int{{0}}, 1); err == nil {
		t.Fatal("expected error for eval before load")
	}
}

// startWorkers spawns n TCP worker servers on ephemeral localhost ports and
// returns their addresses and a shutdown func.
func startWorkers(t *testing.T, n int) ([]string, func()) {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = lis
		addrs[i] = lis.Addr().String()
		go Serve(lis) //nolint:errcheck // test server lifetime bound to listener
	}
	return addrs, func() {
		for _, lis := range listeners {
			lis.Close()
		}
	}
}

func TestTCPClusterMatchesBuiltin(t *testing.T) {
	addrs, shutdown := startWorkers(t, 3)
	defer shutdown()

	rng := rand.New(rand.NewSource(3))
	ds, e := randomDataset(rng, 500, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref, err := runDS(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}

	workers := make([]Worker, len(addrs))
	for i, a := range addrs {
		w, err := Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	cl, err := NewClusterOpts(workers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	c := cfg
	c.Evaluator = cl
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if !equalScores(scores(got.TopK), scores(ref.TopK)) {
		t.Fatalf("tcp cluster scores %v differ from builtin %v", scores(got.TopK), scores(ref.TopK))
	}
}

// kernelProbe is a Worker that records the kernel core.NewKernel picks on
// each partition shipped through it. Failovers re-ship partitions
// concurrently, so the records take a lock.
type kernelProbe struct {
	Worker
	mu             sync.Mutex
	bitset, binary []bool
}

func (w *kernelProbe) Load(ctx context.Context, part int, x *matrix.CSR, e []float64) error {
	k := core.NewKernel(x, e, nil)
	w.mu.Lock()
	w.bitset = append(w.bitset, k.UsesBitset())
	w.binary = append(w.binary, k.Binary())
	w.mu.Unlock()
	return w.Worker.Load(ctx, part, x, e)
}

// TestTCPClusterPayloads ships each Load payload over TCP and runs each
// non-binary kernel loop on the workers, and requires the builtin plan's
// bits at 1, 2 and 4 workers. The errors are multiples of 1/16, which
// float64 sums exactly in any grouping, so the partition merge must match
// the single-process run bit for bit although the general loops run.
func TestTCPClusterPayloads(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rows, feats int
		dom, sigma  int
		bitset      bool
	}{
		// Three features of 100 values: the average column holds 1/100 of
		// the rows, below the bitset kernel's 1/64 break-even, so every
		// partition ships int32 CSR ids and runs the CSR kernel.
		{name: "int32 CSR ids", rows: 8000, feats: 3, dom: 70, sigma: 2},
		// Four values per feature: dense columns ship as packed words and
		// run the bitset kernel's general loop on the fractional errors.
		{name: "packed words", rows: 2000, feats: 4, dom: 4, sigma: 10, bitset: true},
	} {
		rng := rand.New(rand.NewSource(11))
		ds := &frame.Dataset{Name: "payload", X0: frame.NewIntMatrix(tc.rows, tc.feats), Features: make([]frame.Feature, tc.feats)}
		for j := range ds.Features {
			ds.Features[j] = frame.Feature{Name: fmt.Sprintf("f%d", j), Domain: tc.dom}
			for i := 0; i < tc.rows; i++ {
				ds.X0.Set(i, j, 1+rng.Intn(tc.dom))
			}
		}
		// Rows with f0 = 1 or f1 = 1 err more, so the top-K is not empty.
		e := make([]float64, tc.rows)
		for i := range e {
			e[i] = float64(rng.Intn(12)) / 16
			if ds.X0.At(i, 0) == 1 || ds.X0.At(i, 1) == 1 {
				e[i] += float64(rng.Intn(20)) / 16
			}
		}
		cfg := core.Config{K: 6, Sigma: tc.sigma, Alpha: 0.99}
		ref, err := runDS(ds, e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, nw := range []int{1, 2, 4} {
			addrs, shutdown := startWorkers(t, nw)
			probes := make([]*kernelProbe, nw)
			workers := make([]Worker, nw)
			for i, a := range addrs {
				w, err := Dial(a)
				if err != nil {
					t.Fatal(err)
				}
				probes[i] = &kernelProbe{Worker: w}
				workers[i] = probes[i]
			}
			cl, err := NewClusterOpts(workers, Options{})
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.Evaluator = cl
			got, err := runDS(ds, e, c)
			cl.Close()
			shutdown()
			if err != nil {
				t.Fatalf("%s, %d workers: %v", tc.name, nw, err)
			}
			for i, p := range probes {
				if len(p.bitset) != 1 || p.bitset[0] != tc.bitset || p.binary[0] {
					t.Fatalf("%s, %d workers: worker %d loaded partitions with bitset %v binary %v, want one with bitset %v, not binary",
						tc.name, nw, i, p.bitset, p.binary, tc.bitset)
				}
			}
			if len(got.TopK) == 0 || !reflect.DeepEqual(got.TopK, ref.TopK) {
				t.Fatalf("%s, %d workers: top-K\n%+v\nbuiltin\n%+v", tc.name, nw, got.TopK, ref.TopK)
			}
			if len(got.Levels) != len(ref.Levels) {
				t.Fatalf("%s, %d workers: %d levels, builtin %d", tc.name, nw, len(got.Levels), len(ref.Levels))
			}
			for l, lv := range got.Levels {
				want := ref.Levels[l]
				if lv.Candidates != want.Candidates || lv.Valid != want.Valid || lv.Pruned != want.Pruned {
					t.Fatalf("%s, %d workers: level %d counts %+v, builtin %+v", tc.name, nw, lv.Level, lv, want)
				}
			}
		}
	}
}

// startServers spawns n stoppable TCP worker servers on ephemeral localhost
// ports; Stop on one acts as that worker process dying.
func startServers(t *testing.T, n int) ([]string, []*Server) {
	t.Helper()
	addrs, srvs := make([]string, n), make([]*Server, n)
	for i := range srvs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if srvs[i], err = NewServer(lis); err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		go srvs[i].Serve() //nolint:errcheck // lifetime bound to Stop
		t.Cleanup(srvs[i].Stop)
	}
	return addrs, srvs
}

// TestTCPBinaryLayoutMatchesLocal: with 0/1 errors every partition ships as
// the kernel's binary layout, and a run over two TCP workers equals the
// local run bit for bit — top-K and every level's counts — also when a
// worker dies after level 1 and its partition is re-shipped to the other
// (failover), and when both die on an elastic fleet and the driver
// evaluates the partitions itself (degraded).
func TestTCPBinaryLayoutMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const rows, feats, dom = 3000, 5, 4
	ds := &frame.Dataset{Name: "binary", X0: frame.NewIntMatrix(rows, feats), Features: make([]frame.Feature, feats)}
	for j := range ds.Features {
		ds.Features[j] = frame.Feature{Name: fmt.Sprintf("f%d", j), Domain: dom}
		for i := 0; i < rows; i++ {
			ds.X0.Set(i, j, 1+rng.Intn(dom))
		}
	}
	e := make([]float64, rows)
	for i := range e {
		if p := 0.1 + 0.4*float64(ds.X0.At(i, 0)%2); rng.Float64() < p {
			e[i] = 1
		}
	}
	cfg := core.Config{K: 6, Sigma: 10, Alpha: 0.95}
	ref, err := runDS(ds, e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Levels) < 4 {
		t.Fatalf("the local run reached level %d; the wide-candidate loop needs 4", len(ref.Levels))
	}
	// dialProbes dials addrs, recording the kernel of every partition
	// shipped through each worker.
	dialProbes := func(addrs []string) ([]Worker, []*kernelProbe) {
		workers, probes := make([]Worker, len(addrs)), make([]*kernelProbe, len(addrs))
		for i, a := range addrs {
			w, err := Dial(a)
			if err != nil {
				t.Fatal(err)
			}
			probes[i] = &kernelProbe{Worker: w}
			workers[i] = probes[i]
		}
		return workers, probes
	}
	for _, tc := range []struct {
		name    string
		elastic bool
		kill    []int  // servers stopped after level 1
		counter string // a counter the run must raise
	}{
		{name: "two workers"},
		{name: "failover re-ship", kill: []int{0}, counter: "sl_dist_failovers_total"},
		{name: "degraded", elastic: true, kill: []int{0, 1}, counter: "sl_dist_degraded_total"},
	} {
		addrs, srvs := startServers(t, 2)
		workers, probes := dialProbes(addrs)
		reg := obs.NewRegistry()
		var cl *Cluster
		if tc.elastic {
			byAddr := map[string]Worker{addrs[0]: workers[0], addrs[1]: workers[1]}
			cl, err = NewElasticCluster(func(_ context.Context, m membership.Member) (Worker, error) {
				return byAddr[m.Addr], nil
			}, Options{Metrics: reg})
			if err == nil {
				cl.ApplyView(context.Background(), membership.View{Version: 1, Members: []membership.Member{
					{ID: "m0", Addr: addrs[0], Incarnation: 1}, {ID: "m1", Addr: addrs[1], Incarnation: 1},
				}})
			}
		} else {
			cl, err = NewClusterOpts(workers, Options{Metrics: reg})
		}
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Evaluator = cl
		c.OnLevel = func(ls core.LevelStats) {
			if ls.Level == 1 {
				for _, k := range tc.kill {
					srvs[k].Stop()
				}
			}
		}
		got, err := runDS(ds, e, c)
		cl.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got.TopK, ref.TopK) {
			t.Fatalf("%s: top-K\n%+v\nlocal\n%+v", tc.name, got.TopK, ref.TopK)
		}
		if len(got.Levels) != len(ref.Levels) {
			t.Fatalf("%s: %d levels, local %d", tc.name, len(got.Levels), len(ref.Levels))
		}
		for l, lv := range got.Levels {
			if want := ref.Levels[l]; lv.Candidates != want.Candidates || lv.Valid != want.Valid || lv.Pruned != want.Pruned {
				t.Fatalf("%s: level %d counts %+v, local %+v", tc.name, lv.Level, lv, want)
			}
		}
		loads := 0
		for i, p := range probes {
			loads += len(p.binary)
			for _, b := range p.binary {
				if !b {
					t.Fatalf("%s: worker %d loaded a partition that is not binary (%v)", tc.name, i, p.binary)
				}
			}
		}
		if loads == 0 {
			t.Fatalf("%s: no partition was shipped", tc.name)
		}
		if tc.counter != "" && reg.Counter(tc.counter, "").Value() == 0 {
			t.Fatalf("%s: %s stayed 0", tc.name, tc.counter)
		}
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestRemoteEvalBeforeLoad(t *testing.T) {
	addrs, shutdown := startWorkers(t, 1)
	defer shutdown()
	w, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, _, err := w.Eval(context.Background(), 0, [][]int{{0}}, 1); err == nil {
		t.Fatal("expected error for remote eval before load")
	}
}

func TestClusterSurfacesWorkerFailure(t *testing.T) {
	// A worker that dies mid-run must surface as an error from core.Run,
	// not as silent data loss.
	addrs, shutdown := startWorkers(t, 2)
	rng := rand.New(rand.NewSource(4))
	ds, e := randomDataset(rng, 300, 3, 3)

	workers := make([]Worker, len(addrs))
	for i, a := range addrs {
		w, err := Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	cl, err := NewClusterOpts(workers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the workers before the run; Setup (Load) must fail.
	shutdown()
	workers[0].Close()
	workers[1].Close()
	cfg := core.Config{K: 4, Sigma: 3, Alpha: 0.9, Evaluator: cl}
	if _, err := runDS(ds, e, cfg); err == nil {
		t.Fatal("expected error from dead cluster")
	}
}

func TestServeStopsOnClose(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Serve(lis) }()
	lis.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v on close, want nil", err)
	}
}
