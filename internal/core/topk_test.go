package core

import (
	"reflect"
	"testing"
)

func TestTopKRejectsInvalid(t *testing.T) {
	tk := newTopK(3, 10)
	tk.offer([]int{0}, -1, 50, 5, 1) // non-positive score
	tk.offer([]int{1}, 2, 5, 5, 1)   // below sigma
	if len(tk.entries) != 0 {
		t.Fatalf("entries = %d, want 0", len(tk.entries))
	}
	if tk.threshold() != 0 {
		t.Fatalf("threshold = %v, want 0 while not full", tk.threshold())
	}
}

func TestTopKOrdersAndTruncates(t *testing.T) {
	tk := newTopK(2, 1)
	tk.offer([]int{0}, 1, 10, 1, 1)
	tk.offer([]int{1}, 3, 10, 1, 1)
	tk.offer([]int{2}, 2, 10, 1, 1)
	if len(tk.entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(tk.entries))
	}
	if tk.entries[0].score != 3 || tk.entries[1].score != 2 {
		t.Fatalf("scores = %v, %v; want 3, 2", tk.entries[0].score, tk.entries[1].score)
	}
	if tk.threshold() != 2 {
		t.Fatalf("threshold = %v, want 2", tk.threshold())
	}
}

func TestTopKThresholdMonotone(t *testing.T) {
	tk := newTopK(2, 1)
	prev := tk.threshold()
	for _, sc := range []float64{0.5, 1.5, 1.0, 2.5, 3.0, 0.2} {
		tk.offer([]int{int(sc * 10)}, sc, 10, 1, 1)
		if th := tk.threshold(); th < prev {
			t.Fatalf("threshold decreased from %v to %v", prev, th)
		} else {
			prev = th
		}
	}
}

func TestTopKTieBreakPrefersLargerSlices(t *testing.T) {
	tk := newTopK(1, 1)
	tk.offer([]int{0}, 1, 10, 1, 1)
	tk.offer([]int{1}, 1, 20, 1, 1)
	if tk.entries[0].ss != 20 {
		t.Fatalf("kept size %v, want 20 (larger wins ties)", tk.entries[0].ss)
	}
}

func TestTopKSkipsWhenFullAndWorse(t *testing.T) {
	tk := newTopK(1, 1)
	tk.offer([]int{0}, 5, 10, 1, 1)
	tk.offer([]int{1}, 4, 10, 1, 1)
	if len(tk.entries) != 1 || tk.entries[0].score != 5 {
		t.Fatalf("entries = %+v", tk.entries)
	}
}

// TestTopKIndependentOfOfferOrder: the top-K receives candidates in the
// join's output order, which no result may depend on. Offering one set of
// slices — with an exact (score, size)
// tie across rank K — in every order must give identical entries: the
// lexicographically smallest tied columns hold rank K.
func TestTopKIndependentOfOfferOrder(t *testing.T) {
	type offer struct {
		cols      []int
		score, ss float64
	}
	offers := []offer{
		{[]int{0, 3}, 2, 10},
		{[]int{1}, 1, 10},
		{[]int{2}, 1, 10},
		{[]int{0}, 1, 10},
		{[]int{1, 4}, 1, 10},
		{[]int{5}, 1, 20},
	}
	want := [][]int{{0, 3}, {5}, {0}}
	var permute func(order []int, k int)
	permute = func(order []int, k int) {
		if k == len(order) {
			tk := newTopK(len(want), 1)
			for _, i := range order {
				o := offers[i]
				tk.offer(o.cols, o.score, o.ss, o.score*o.ss, 1)
			}
			got := make([][]int, len(tk.entries))
			for i, e := range tk.entries {
				got[i] = e.cols
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("offer order %v kept %v, want %v", order, got, want)
			}
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(order, k+1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute([]int{0, 1, 2, 3, 4, 5}, 0)
}
