package dist

import (
	"testing"
	"time"
)

func TestPartitionSizes(t *testing.T) {
	cases := []struct {
		rows, parts int
		want        []int
	}{
		{10, 3, []int{4, 3, 3}},
		{9, 3, []int{3, 3, 3}},
		{3, 3, []int{1, 1, 1}},
		{7, 1, []int{7}},
		{0, 2, []int{0, 0}},
		{5, 0, nil},
	}
	for _, c := range cases {
		got := PartitionSizes(c.rows, c.parts)
		if len(got) != len(c.want) {
			t.Fatalf("PartitionSizes(%d,%d) = %v, want %v", c.rows, c.parts, got, c.want)
		}
		total := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("PartitionSizes(%d,%d) = %v, want %v", c.rows, c.parts, got, c.want)
			}
			total += got[i]
		}
		if c.parts > 0 && total != c.rows {
			t.Fatalf("PartitionSizes(%d,%d) sums to %d", c.rows, c.parts, total)
		}
	}
}

func TestNextLiveWorker(t *testing.T) {
	alive := []bool{false, true, true, false}
	if got := NextLiveWorker(alive, -1); got != 1 {
		t.Fatalf("NextLiveWorker(avoid=-1) = %d, want 1", got)
	}
	if got := NextLiveWorker(alive, 1); got != 2 {
		t.Fatalf("NextLiveWorker(avoid=1) = %d, want 2", got)
	}
	if got := NextLiveWorker([]bool{false, false}, -1); got != -1 {
		t.Fatalf("NextLiveWorker(none) = %d, want -1", got)
	}
	if got := NextLiveWorker([]bool{true}, 0); got != -1 {
		t.Fatalf("NextLiveWorker(only avoid live) = %d, want -1", got)
	}
}

func TestReshipPlan(t *testing.T) {
	assign := []int{2, 0, 2, 1, 2}
	alive := []bool{true, true, false}
	moves := ReshipPlan(assign, alive, 2)
	want := [][2]int{{0, 0}, {2, 1}, {4, 0}} // round-robin over live {0,1}
	if len(moves) != len(want) {
		t.Fatalf("ReshipPlan = %v, want %v", moves, want)
	}
	for i := range moves {
		if moves[i] != want[i] {
			t.Fatalf("ReshipPlan = %v, want %v", moves, want)
		}
	}
	if got := ReshipPlan(assign, []bool{false, false, false}, 2); got != nil {
		t.Fatalf("ReshipPlan with no live workers = %v, want nil", got)
	}
}

func TestProbeStep(t *testing.T) {
	// A live worker striking out at the limit is evicted.
	alive, strikes, v := ProbeStep(true, 1, 2, false)
	if alive || strikes != 2 || v != ProbeEvict {
		t.Fatalf("strike-out: got alive=%v strikes=%d verdict=%v", alive, strikes, v)
	}
	// Below the limit it just takes a strike.
	alive, strikes, v = ProbeStep(true, 0, 2, false)
	if !alive || strikes != 1 || v != ProbeStrike {
		t.Fatalf("first strike: got alive=%v strikes=%d verdict=%v", alive, strikes, v)
	}
	// A successful probe clears strikes.
	alive, strikes, v = ProbeStep(true, 1, 2, true)
	if !alive || strikes != 0 || v != ProbeOK {
		t.Fatalf("clear: got alive=%v strikes=%d verdict=%v", alive, strikes, v)
	}
	// A dead worker answering again is resurrected.
	alive, strikes, v = ProbeStep(false, 5, 2, true)
	if !alive || strikes != 0 || v != ProbeResurrect {
		t.Fatalf("resurrect: got alive=%v strikes=%d verdict=%v", alive, strikes, v)
	}
	// A dead worker failing more probes stays dead without re-evicting.
	alive, _, v = ProbeStep(false, 5, 2, false)
	if alive || v != ProbeStrike {
		t.Fatalf("dead stays dead: got alive=%v verdict=%v", alive, v)
	}
}

func TestHedgePolicyFixed(t *testing.T) {
	h := NewHedgePolicy(30*time.Millisecond, 0, 4)
	if th, ok := h.Threshold(); !ok || th != 30*time.Millisecond {
		t.Fatalf("fixed threshold = %v,%v", th, ok)
	}
	if h.Adaptive() {
		t.Fatal("fixed policy reported adaptive")
	}
}

func TestHedgePolicyAdaptive(t *testing.T) {
	h := NewHedgePolicy(0, 2.0, 4)
	if !h.Adaptive() {
		t.Fatal("adaptive policy not adaptive")
	}
	if _, ok := h.Threshold(); ok {
		t.Fatal("threshold available before any completion")
	}
	h.Record(10 * time.Millisecond)
	if _, ok := h.Threshold(); ok {
		t.Fatal("threshold available below half the partitions")
	}
	h.Record(20 * time.Millisecond)
	th, ok := h.Threshold()
	if !ok {
		t.Fatal("threshold unavailable at half the partitions")
	}
	// Median of {10ms, 20ms} picks the upper middle (20ms); ×2 = 40ms.
	if th != 40*time.Millisecond {
		t.Fatalf("adaptive threshold = %v, want 40ms", th)
	}
	// Sub-millisecond thresholds floor at 1ms.
	h2 := NewHedgePolicy(0, 2.0, 2)
	h2.Record(10 * time.Microsecond)
	if th, _ := h2.Threshold(); th != time.Millisecond {
		t.Fatalf("floored threshold = %v, want 1ms", th)
	}
}

func TestHedgePolicyDisabled(t *testing.T) {
	if h := NewHedgePolicy(0, 0, 8); h != nil {
		t.Fatal("disabled policy is non-nil")
	}
	var h *HedgePolicy
	h.Record(time.Second) // must not panic
	if _, ok := h.Threshold(); ok {
		t.Fatal("nil policy hedged")
	}
	if h.Adaptive() {
		t.Fatal("nil policy adaptive")
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{Kind: DecideFailover, Part: 3, Worker: 1, Target: 2}
	if got := d.String(); got != "failover p3 w1→w2" {
		t.Fatalf("Decision.String() = %q", got)
	}
	e := Decision{Kind: DecideEvict, Part: -1, Worker: 4, Target: -1, Strikes: 2}
	if got := e.String(); got != "evict w4 strikes=2" {
		t.Fatalf("Decision.String() = %q", got)
	}
}
