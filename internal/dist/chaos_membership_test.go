// Membership chaos matrix for the elastic fleet: a seeded churn script
// mutates cluster membership at every lattice level — joins, crashes,
// same-incarnation flaps, higher-incarnation resurrections — while some
// workers also inject RPC faults, and the run must stay bit-identical to the
// single-stable-member reference. Lives in package dist_test for the same
// reason as chaos_test.go: faults wraps dist.Worker.
package dist_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/dist"
	"sliceline/internal/faults"
	"sliceline/internal/membership"
	"sliceline/internal/obs"
)

// fleetScript drives deterministic membership churn: a fixed member pool, a
// live set, per-member incarnations, and a monotonically increasing view
// version. All mutations funnel through apply, so a failing seed replays
// exactly.
type fleetScript struct {
	ec      *dist.Cluster
	ids     []string
	live    map[string]bool
	inc     map[string]uint64
	version uint64
}

func newFleetScript(ec *dist.Cluster, ids ...string) *fleetScript {
	fs := &fleetScript{ec: ec, ids: ids, live: map[string]bool{}, inc: map[string]uint64{}}
	for _, id := range ids {
		fs.inc[id] = 1
	}
	return fs
}

func (fs *fleetScript) apply() {
	fs.version++
	var ms []membership.Member
	for _, id := range fs.ids {
		if fs.live[id] {
			ms = append(ms, membership.Member{ID: id, Addr: id + ":0", Incarnation: fs.inc[id]})
		}
	}
	fs.ec.ApplyView(context.Background(), membership.View{Version: fs.version, Members: ms})
}

// step performs one churn action. The action kinds cycle through a seeded
// permutation so every run of >= 4 levels exercises all four.
func (fs *fleetScript) step(action int) {
	switch action {
	case 0: // join: first absent member enters the view
		for _, id := range fs.ids {
			if !fs.live[id] {
				fs.live[id] = true
				break
			}
		}
	case 1: // crash: first live member vanishes from the view
		for _, id := range fs.ids {
			if fs.live[id] {
				fs.live[id] = false
				break
			}
		}
	case 2: // flap: leave and rejoin with the same incarnation (warm path)
		for _, id := range fs.ids {
			if fs.live[id] {
				fs.live[id] = false
				fs.apply()
				fs.live[id] = true
				break
			}
		}
	case 3: // resurrect: a departed member returns as a restarted process
		for _, id := range fs.ids {
			if !fs.live[id] {
				fs.inc[id]++
				fs.live[id] = true
				break
			}
		}
	}
	fs.apply()
}

// TestChaosMembershipSeededChurn is the acceptance matrix: at every lattice
// level the fleet joins, crashes, flaps, or resurrects a member (order seeded),
// two of the four members also inject seeded RPC faults, and the top-K must be
// bit-identical to the single-stable-member reference. Failures reproduce
// from the seed alone.
func TestChaosMembershipSeededChurn(t *testing.T) {
	ds, e := chaosDataset(95, 400, 5, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref := elasticRef(t, cfg, dsPair{ds, e})

	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			reg := obs.NewRegistry()
			pool := map[string]dist.Worker{
				"m0": &dist.InProcessWorker{},
				"m1": faults.Wrap(&dist.InProcessWorker{}, faults.Seeded(seed, faults.Chaos)),
				"m2": &dist.InProcessWorker{},
				"m3": faults.Wrap(&dist.InProcessWorker{}, faults.Seeded(seed+1000, faults.Chaos)),
			}
			ec, err := dist.NewElasticCluster(testDialer(pool), dist.Options{
				Metrics:     reg,
				CallTimeout: 500 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ec.Close()

			script := newFleetScript(ec, "m0", "m1", "m2", "m3")
			script.live["m0"], script.live["m1"] = true, true
			script.apply()

			order := rng.Perm(4) // all four churn kinds, seeded order
			level := 0
			c := cfg
			c.Evaluator = ec
			c.OnLevel = func(core.LevelStats) {
				script.step(order[level%4])
				level++
			}
			start := time.Now()
			got, err := runDS(ds, e, c)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if elapsed := time.Since(start); elapsed > 60*time.Second {
				t.Fatalf("seed %d: churned run took %v", seed, elapsed)
			}
			if level < 4 {
				t.Fatalf("seed %d: only %d levels ran; churn matrix not fully exercised", seed, level)
			}
			if !reflect.DeepEqual(got.TopK, ref.TopK) {
				t.Fatalf("seed %d: top-K under membership churn differs from stable reference:\n got %v\nwant %v",
					seed, got.TopK, ref.TopK)
			}
			if n := reg.Counter("sl_dist_member_joins_total", "").Value(); n == 0 {
				t.Fatalf("seed %d: no member ever joined; script exercised nothing", seed)
			}
			if n := reg.Counter("sl_dist_member_leaves_total", "").Value(); n == 0 {
				t.Fatalf("seed %d: no member ever left; script exercised nothing", seed)
			}
		})
	}
}

// TestChaosMembershipFullFleetLossMidRun: every member vanishes after the
// first level. The job must complete on the driver — degraded, counted, and
// bit-identical — rather than erroring out.
func TestChaosMembershipFullFleetLossMidRun(t *testing.T) {
	ds, e := chaosDataset(96, 300, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref := elasticRef(t, cfg, dsPair{ds, e})

	reg := obs.NewRegistry()
	pool := map[string]dist.Worker{
		"m0": &dist.InProcessWorker{},
		"m1": &dist.InProcessWorker{},
	}
	ec, err := dist.NewElasticCluster(testDialer(pool), dist.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	script := newFleetScript(ec, "m0", "m1")
	script.live["m0"], script.live["m1"] = true, true
	script.apply()

	lost := false
	c := cfg
	c.Evaluator = ec
	c.OnLevel = func(core.LevelStats) {
		if !lost {
			lost = true
			script.live["m0"], script.live["m1"] = false, false
			script.apply()
		}
	}
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatalf("full fleet loss mid-run must degrade, not error: %v", err)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("degraded top-K differs from fleet reference:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
	if n := reg.Counter("sl_dist_degraded_total", "").Value(); n == 0 {
		t.Fatal("degraded counter never incremented after full fleet loss")
	}
	if got := ec.LiveMembers(); len(got) != 0 {
		t.Fatalf("live members after full loss: %v", got)
	}
}

// TestChaosMembershipCrashResurrectCycle: the same member crashes and comes
// back as a new incarnation repeatedly — the amnesiac-process path — while a
// second member carries the run. Placement must reconverge every cycle.
func TestChaosMembershipCrashResurrectCycle(t *testing.T) {
	ds, e := chaosDataset(97, 300, 4, 4)
	cfg := core.Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref := elasticRef(t, cfg, dsPair{ds, e})

	reg := obs.NewRegistry()
	pool := map[string]dist.Worker{
		"steady": &dist.InProcessWorker{},
		"cycler": &dist.InProcessWorker{},
	}
	ec, err := dist.NewElasticCluster(testDialer(pool), dist.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()
	script := newFleetScript(ec, "steady", "cycler")
	script.live["steady"], script.live["cycler"] = true, true
	script.apply()

	level := 0
	c := cfg
	c.Evaluator = ec
	c.OnLevel = func(core.LevelStats) {
		if level%2 == 0 {
			script.live["cycler"] = false
		} else {
			script.inc["cycler"]++ // restarted process: higher incarnation
			script.live["cycler"] = true
		}
		script.apply()
		level++
	}
	got, err := runDS(ds, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("top-K under crash/resurrect cycling differs:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
	if n := reg.Counter("sl_dist_rebalances_total", "").Value(); n == 0 {
		t.Fatal("no partition ever rebalanced across the crash/resurrect cycles")
	}
}
