package dist_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/dist"
	"sliceline/internal/frame"
	"sliceline/internal/matrix"
	"sliceline/internal/membership"
	"sliceline/internal/obs"
)

// dsPair bundles a dataset with its error vector for the test helpers.
type dsPair struct {
	ds *frame.Dataset
	e  []float64
}

// testDialer resolves member IDs to pre-built workers; unknown members fail
// to dial like an unreachable address would.
func testDialer(workers map[string]dist.Worker) dist.Dialer {
	return func(_ context.Context, m membership.Member) (dist.Worker, error) {
		w, ok := workers[m.ID]
		if !ok {
			return nil, errors.New("no route to member " + m.ID)
		}
		return w, nil
	}
}

func view(version uint64, members ...membership.Member) membership.View {
	return membership.View{Version: version, Members: members}
}

func fleetMember(id string, inc uint64) membership.Member {
	return membership.Member{ID: id, Addr: id + ":0", Incarnation: inc}
}

// countingWorker counts Load calls so tests can assert when data actually
// moved versus re-attached warm.
type countingWorker struct {
	*dist.InProcessWorker
	loads atomic.Int64
}

func (w *countingWorker) Load(ctx context.Context, part int, x *matrix.CSR, e []float64) error {
	w.loads.Add(1)
	return w.InProcessWorker.Load(ctx, part, x, e)
}

// elasticRef runs the single-stable-member reference: same Partitions, so
// the merge structure — and the result bits — must match any churned run.
func elasticRef(t *testing.T, cfg core.Config, ds dsPair) *core.Result {
	t.Helper()
	ref, err := dist.NewElasticCluster(
		testDialer(map[string]dist.Worker{"ref": &dist.InProcessWorker{}}), dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref.ApplyView(context.Background(), view(1, fleetMember("ref", 1)))
	c := cfg
	c.Evaluator = ref
	res, err := runDS(ds.ds, ds.e, c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestElasticEmptyFleetDegradesLocally(t *testing.T) {
	ds, e := chaosDataset(91, 300, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref := elasticRef(t, cfg, dsPair{ds, e})

	reg := obs.NewRegistry()
	ec, err := dist.NewElasticCluster(testDialer(nil), dist.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	c := cfg
	c.Evaluator = ec
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatalf("empty-fleet run must degrade, not error: %v", err)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("degraded top-K differs from fleet reference:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
	if n := reg.Counter("sl_dist_degraded_total", "").Value(); n == 0 {
		t.Fatal("degraded counter never incremented on an empty fleet")
	}
}

func TestElasticJoinMidRunRebalances(t *testing.T) {
	ds, e := chaosDataset(92, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref := elasticRef(t, cfg, dsPair{ds, e})

	reg := obs.NewRegistry()
	w1 := &dist.InProcessWorker{}
	w2 := &countingWorker{InProcessWorker: &dist.InProcessWorker{}}
	ec, err := dist.NewElasticCluster(
		testDialer(map[string]dist.Worker{"w1": w1, "w2": w2}), dist.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	ec.ApplyView(context.Background(), view(1, fleetMember("w1", 1)))

	c := cfg
	c.Evaluator = ec
	joined := false
	c.OnLevel = func(core.LevelStats) {
		if !joined {
			joined = true
			ec.ApplyView(context.Background(), view(2, fleetMember("w1", 1), fleetMember("w2", 1)))
		}
	}
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("top-K after mid-run join differs:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
	if w2.loads.Load() == 0 {
		t.Fatal("joining worker was never shipped a partition")
	}
	if n := reg.Counter("sl_dist_rebalances_total", "").Value(); n == 0 {
		t.Fatal("rebalance counter never incremented on a join")
	}
	if got := ec.LiveMembers(); !reflect.DeepEqual(got, []string{"w1", "w2"}) {
		t.Fatalf("live members: %v", got)
	}
}

func TestElasticFlapReattachesWarm(t *testing.T) {
	ds, e := chaosDataset(93, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref := elasticRef(t, cfg, dsPair{ds, e})

	reg := obs.NewRegistry()
	w1 := &countingWorker{InProcessWorker: &dist.InProcessWorker{}}
	w2 := &dist.InProcessWorker{}
	// Only content-addressed keys re-attach warm.
	ec, err := dist.NewElasticCluster(
		testDialer(map[string]dist.Worker{"w1": w1, "w2": w2}), dist.Options{PlacementSeed: 0x5eed, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	both := view(1, fleetMember("w1", 1), fleetMember("w2", 1))
	ec.ApplyView(context.Background(), both)

	c := cfg
	c.Evaluator = ec
	level := 0
	c.OnLevel = func(core.LevelStats) {
		level++
		switch level {
		case 1:
			// w1's lease flaps: it leaves the view but the process (and its
			// loaded partitions) lives on.
			ec.ApplyView(context.Background(), view(2, fleetMember("w2", 1)))
		case 2:
			// Same incarnation rejoins: its partitions must re-attach warm.
			ec.ApplyView(context.Background(), view(3, fleetMember("w1", 1), fleetMember("w2", 1)))
		}
	}
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("top-K after flap differs:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
	if n := reg.Counter("sl_dist_warm_attach_total", "").Value(); n == 0 {
		t.Fatal("flapped worker was re-shipped data it still held (no warm attach)")
	}
}

// TestElasticUnseededRejoinReships: without a PlacementSeed, partition keys
// are bare indices, and a member that rejoins may still hold those indices
// from an earlier Setup on other data. So an unseeded fleet never
// re-attaches warm: the rejoining member is shipped the current job's rows
// and the job returns its one-member reference result.
func TestElasticUnseededRejoinReships(t *testing.T) {
	wideDS, wideE := chaosDataset(97, 400, 6, 6)
	narrowDS, narrowE := chaosDataset(98, 400, 3, 4)
	// Plant slices on the narrow data so its top-K is not empty.
	for i := range narrowE {
		if narrowDS.X0.At(i, 0) == 1 {
			narrowE[i] += 1
		}
	}
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref := elasticRef(t, cfg, dsPair{narrowDS, narrowE})
	if len(ref.TopK) == 0 {
		t.Fatal("the reference top-K is empty; the fixture cannot tell wrong rows from right ones")
	}

	reg := obs.NewRegistry()
	w1 := &countingWorker{InProcessWorker: &dist.InProcessWorker{}}
	w2 := &dist.InProcessWorker{}
	ec, err := dist.NewElasticCluster(
		testDialer(map[string]dist.Worker{"w1": w1, "w2": w2}), dist.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()

	// Job A on the wider dataset leaves partitions under bare keys on both
	// members; then w1 leaves the view, its process and partitions intact.
	ec.ApplyView(context.Background(), view(1, fleetMember("w1", 1), fleetMember("w2", 1)))
	a := cfg
	a.Evaluator = ec
	if _, err := runDS(wideDS, wideE, a); err != nil {
		t.Fatal(err)
	}
	ec.ApplyView(context.Background(), view(2, fleetMember("w2", 1)))
	loadsBefore := w1.loads.Load()

	// Job B on the narrower dataset; w1 rejoins after its first level.
	b := cfg
	b.Evaluator = ec
	rejoined := false
	b.OnLevel = func(core.LevelStats) {
		if !rejoined {
			rejoined = true
			ec.ApplyView(context.Background(), view(3, fleetMember("w1", 1), fleetMember("w2", 1)))
		}
	}
	got, err := runDS(narrowDS, narrowE, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("top-K after an unseeded rejoin differs from the reference:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
	if n := reg.Counter("sl_dist_warm_attach_total", "").Value(); n != 0 {
		t.Fatalf("an unseeded fleet re-attached %d partitions warm by bare key", n)
	}
	if w1.loads.Load() == loadsBefore {
		t.Fatal("the rejoining member was never shipped job B's rows")
	}
}

// TestElasticDialFailureSkipsMember: a member that cannot be dialed is left
// out of the fleet without failing view application; the run proceeds on the
// reachable members.
func TestElasticDialFailureSkipsMember(t *testing.T) {
	ds, e := chaosDataset(94, 200, 3, 3)
	cfg := core.Config{K: 3, Sigma: 4, Alpha: 0.9}
	ref := elasticRef(t, cfg, dsPair{ds, e})

	ec, err := dist.NewElasticCluster(
		testDialer(map[string]dist.Worker{"w1": &dist.InProcessWorker{}}), dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	ec.ApplyView(context.Background(), view(1, fleetMember("w1", 1), fleetMember("ghost", 1)))
	if got := ec.LiveMembers(); !reflect.DeepEqual(got, []string{"w1"}) {
		t.Fatalf("live members: %v", got)
	}
	c := cfg
	c.Evaluator = ec
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("top-K with an undialable member differs:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
}

// TestElasticStaleViewIgnored: views must apply monotonically.
func TestElasticStaleViewIgnored(t *testing.T) {
	ec, err := dist.NewElasticCluster(
		testDialer(map[string]dist.Worker{
			"w1": &dist.InProcessWorker{},
			"w2": &dist.InProcessWorker{},
		}), dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	ec.ApplyView(context.Background(), view(5, fleetMember("w1", 1)))
	// An older view listing w2 must not roll the fleet back.
	ec.ApplyView(context.Background(), view(3, fleetMember("w2", 1)))
	if got := ec.LiveMembers(); !reflect.DeepEqual(got, []string{"w1"}) {
		t.Fatalf("stale view applied: %v", got)
	}
}

// TestFollowAppliesInitialViewSynchronously: by the time Follow returns, the
// registrar's current members must already be dialed in — a Setup issued
// immediately after must place partitions on the existing fleet instead of
// racing the watcher goroutine and holding everything on the driver.
func TestFollowAppliesInitialViewSynchronously(t *testing.T) {
	reg := membership.NewRegistrar(membership.RegistrarConfig{})
	if _, err := reg.Announce(membership.Announce{Member: fleetMember("w1", 1)}); err != nil {
		t.Fatal(err)
	}
	ec, err := dist.NewElasticCluster(
		testDialer(map[string]dist.Worker{"w1": &dist.InProcessWorker{}}), dist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	stop := ec.Follow(context.Background(), reg)
	defer stop()
	if got := ec.LiveMembers(); !reflect.DeepEqual(got, []string{"w1"}) {
		t.Fatalf("initial view not applied before Follow returned: live = %v", got)
	}
}

// TestElasticCrossJobWarmAttach: content-addressed partition keys survive on
// the worker between jobs, so a second cluster over the same dataset (same
// PlacementSeed) re-attaches every partition warm instead of re-shipping.
func TestElasticCrossJobWarmAttach(t *testing.T) {
	ds, e := chaosDataset(96, 400, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	w := &countingWorker{InProcessWorker: &dist.InProcessWorker{}}
	seed := uint64(0xfeedface)

	run := func(reg *obs.Registry) *core.Result {
		ec, err := dist.NewElasticCluster(testDialer(map[string]dist.Worker{"w1": w}),
			dist.Options{PlacementSeed: seed, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer ec.Close()
		ec.ApplyView(context.Background(), view(1, fleetMember("w1", 1)))
		c := cfg
		c.Evaluator = ec
		res, err := runDS(ds, e, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run(obs.NewRegistry())
	shipped := w.loads.Load()
	if shipped == 0 {
		t.Fatal("first job shipped nothing")
	}

	reg2 := obs.NewRegistry()
	second := run(reg2)
	if n := w.loads.Load(); n != shipped {
		t.Fatalf("second job re-shipped partitions: loads %d -> %d", shipped, n)
	}
	if n := reg2.Counter("sl_dist_warm_attach_total", "").Value(); n == 0 {
		t.Fatal("warm attach counter never incremented on the second job")
	}
	if !reflect.DeepEqual(first.TopK, second.TopK) {
		t.Fatal("warm-attached result differs from the shipped one")
	}
}

// TestElasticMembersExportQueueDepth: every dialed member's worker slot
// exports its sl_dist_worker_inflight series, like a fixed fleet's workers.
func TestElasticMembersExportQueueDepth(t *testing.T) {
	reg := obs.NewRegistry()
	ec, err := dist.NewElasticCluster(testDialer(map[string]dist.Worker{
		"w1": &dist.InProcessWorker{},
		"w2": &dist.InProcessWorker{},
	}), dist.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	ec.ApplyView(context.Background(), view(1, fleetMember("w1", 1), fleetMember("w2", 1)))
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for wi := 0; wi < 2; wi++ {
		if series := fmt.Sprintf(`sl_dist_worker_inflight{worker="%d"}`, wi); !strings.Contains(buf.String(), series) {
			t.Errorf("no %s series for a dialed member", series)
		}
	}
}

// TestElasticConcurrentViewChurn: a second goroutine applies views — joins,
// departures, same-incarnation flaps, restarts and full fleet loss — while
// runs set up and evaluate on the same cluster, so view application races
// Setup and Eval instead of landing between levels. Every run must stay
// bit-identical to the single-member reference.
func TestElasticConcurrentViewChurn(t *testing.T) {
	ds, e := chaosDataset(98, 300, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref := elasticRef(t, cfg, dsPair{ds, e})

	pool := map[string]dist.Worker{
		"m0": &dist.InProcessWorker{},
		"m1": &dist.InProcessWorker{},
		"m2": &dist.InProcessWorker{},
	}
	ec, err := dist.NewElasticCluster(testDialer(pool), dist.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	script := newFleetScript(ec, "m0", "m1", "m2")
	script.live["m0"] = true
	script.apply()

	var applied atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(98))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rng.Intn(8) == 0 {
				for id := range script.live {
					script.live[id] = false
				}
				script.apply()
			} else {
				script.step(rng.Intn(4))
			}
			applied.Add(1)
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
	}()

	// Keep running until the churn has had time to land everywhere: at
	// least 8 runs and 64 applied views.
	c := cfg
	c.Evaluator = ec
	deadline := time.Now().Add(30 * time.Second)
	for run := 0; run < 8 || (applied.Load() < 64 && time.Now().Before(deadline)); run++ {
		got, err := runDS(ds, e, c)
		if err != nil {
			t.Errorf("run %d: %v", run, err)
			break
		}
		if !reflect.DeepEqual(got.TopK, ref.TopK) {
			t.Errorf("run %d: top-K under concurrent view churn differs from the reference:\n got %v\nwant %v",
				run, got.TopK, ref.TopK)
			break
		}
	}
	close(stop)
	wg.Wait()
	if n := applied.Load(); n < 64 {
		t.Fatalf("only %d views applied while the runs evaluated", n)
	}
}
