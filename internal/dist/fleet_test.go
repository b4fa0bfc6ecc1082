package dist

import (
	"context"
	"testing"

	"sliceline/internal/membership"
)

// TestFixedFleetIgnoresViews: a fixed fleet's worker list is the whole
// fleet. ApplyView and Follow change nothing, and Setup presumes every
// worker live again, whatever an earlier run marked dead.
func TestFixedFleetIgnoresViews(t *testing.T) {
	ctx := context.Background()
	cl, err := NewClusterOpts([]Worker{&InProcessWorker{}, &InProcessWorker{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m := membership.Member{ID: "x", Addr: "x:0", Incarnation: 1}
	cl.ApplyView(ctx, membership.View{Version: 1, Members: []membership.Member{m}})
	reg := membership.NewRegistrar(membership.RegistrarConfig{})
	if _, err := reg.Announce(membership.Announce{Member: m}); err != nil {
		t.Fatal(err)
	}
	cl.Follow(ctx, reg)()
	if got := cl.LiveMembers(); len(got) != 0 {
		t.Fatalf("fixed fleet took members from a view: %v", got)
	}
	if n := cl.workerCount(); n != 2 {
		t.Fatalf("fixed fleet has %d worker slots after views, want 2", n)
	}

	cl.markDead(1)
	setupTiny(t, cl)
	if !cl.aliveAt(0) || !cl.aliveAt(1) {
		t.Fatal("Setup did not presume every worker of a fixed fleet live")
	}
	ss, se, _, err := cl.Eval(ctx, []int32{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ss[0] != 3 || ss[1] != 3 || se[0] != 3 || se[1] != 3 {
		t.Fatalf("ss=%v se=%v, want [3 3] both", ss, se)
	}
}

// TestElasticSetupPresumesInViewMembersLive pins the liveness rule on a
// membership fleet: Setup presumes live exactly the slots whose member is in
// the current view. A member a failed call marked dead is live again; a
// departed member stays dead.
func TestElasticSetupPresumesInViewMembersLive(t *testing.T) {
	ctx := context.Background()
	pool := map[string]Worker{"m0": &InProcessWorker{}, "m1": &InProcessWorker{}}
	cl, err := NewElasticCluster(func(_ context.Context, m membership.Member) (Worker, error) {
		return pool[m.ID], nil
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ms := []membership.Member{{ID: "m0", Addr: "m0:0", Incarnation: 1}, {ID: "m1", Addr: "m1:0", Incarnation: 1}}
	cl.ApplyView(ctx, membership.View{Version: 1, Members: ms})
	w0, w1 := cl.members["m0"].wi, cl.members["m1"].wi

	cl.markDead(w1)
	setupTiny(t, cl)
	if !cl.aliveAt(w0) || !cl.aliveAt(w1) {
		t.Fatal("Setup did not presume every in-view member live")
	}

	cl.ApplyView(ctx, membership.View{Version: 2, Members: ms[:1]})
	setupTiny(t, cl)
	if !cl.aliveAt(w0) {
		t.Fatal("Setup left the in-view member dead")
	}
	if cl.aliveAt(w1) {
		t.Fatal("Setup presumed a departed member live")
	}
}
