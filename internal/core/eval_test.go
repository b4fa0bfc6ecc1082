package core

import (
	"math/rand"
	"testing"

	"sliceline/internal/fptol"
	"sliceline/internal/frame"
)

func encodeForTest(ds *frame.Dataset) (*frame.Encoding, error) {
	return frame.OneHot(ds)
}

// TestEvalPartitionAdditive: evaluating two disjoint row partitions and
// summing the statistics must equal evaluating the whole matrix — the
// property the distributed backend depends on.
func TestEvalPartitionAdditive(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	ds, e := randomDataset(rng, 300, 4, 3)
	res, err := runDS(ds, e, nil, Config{K: 4, Sigma: 3, Alpha: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) == 0 {
		t.Skip("no slices found in this draw")
	}
	// Rebuild the encoding and evaluate a couple of 2-column candidates
	// both whole and split.
	st := &state{}
	_ = st
	// Use the public kernel directly on the full one-hot matrix.
	enc, errEnc := encodeForTest(ds)
	if errEnc != nil {
		t.Fatal(errEnc)
	}
	cols := [][]int{{0, enc.Beg[1]}, {1, enc.Beg[1] + 1}}
	n := enc.X.Rows()
	ssW := make([]float64, 2)
	seW := make([]float64, 2)
	smW := make([]float64, 2)
	EvalPartitionWeighted(enc.X, e, nil, cols, 2, 0, ssW, seW, smW)

	half := n / 2
	top := enc.X.RowRange(0, half)
	bot := enc.X.RowRange(half, n)
	ss := make([]float64, 2)
	se := make([]float64, 2)
	sm := make([]float64, 2)
	EvalPartitionWeighted(top, e[:half], nil, cols, 2, 0, ss, se, sm)
	EvalPartitionWeighted(bot, e[half:], nil, cols, 2, 0, ss, se, sm)
	for i := 0; i < 2; i++ {
		if ss[i] != ssW[i] {
			t.Errorf("slice %d: partitioned ss %v vs whole %v", i, ss[i], ssW[i])
		}
		if !fptol.DefaultTol.Close(se[i], seW[i]) {
			t.Errorf("slice %d: partitioned se %v vs whole %v", i, se[i], seW[i])
		}
		// sm accumulates via max, which is order-independent.
		if sm[i] != smW[i] {
			t.Errorf("slice %d: partitioned sm %v vs whole %v", i, sm[i], smW[i])
		}
	}
}
