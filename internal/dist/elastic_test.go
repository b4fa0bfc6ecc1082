package dist_test

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

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
	ec, err := dist.NewElasticCluster(
		testDialer(map[string]dist.Worker{"w1": w1, "w2": w2}), dist.Options{Metrics: reg})
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
