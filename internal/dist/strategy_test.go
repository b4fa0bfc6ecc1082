package dist

import (
	"context"
	"testing"

	"sliceline/internal/matrix"
)

func TestClusterEvalBeforeSetup(t *testing.T) {
	cl, err := NewClusterOpts([]Worker{&InProcessWorker{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.Eval(context.Background(), [][]int{{0}}, 1); err == nil {
		t.Fatal("expected error for Eval before Setup")
	}
}

// inProcessCluster builds a Dist-PFor cluster of n in-process workers.
func inProcessCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	workers := make([]Worker, n)
	for i := range workers {
		workers[i] = &InProcessWorker{}
	}
	cl, err := NewClusterOpts(workers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// oneHot returns an n×2 one-hot matrix where rows alternate between the two
// columns, plus an all-ones error vector. Column 0 owns ceil(n/2) rows.
func oneHot(n int) (*matrix.CSR, []float64) {
	data := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		data[2*i+i%2] = 1
	}
	e := make([]float64, n)
	for i := range e {
		e[i] = 1
	}
	return matrix.CSRFromDense(matrix.NewDenseData(n, 2, data)), e
}

// TestClusterPartitioningBalanced: Setup must split the rows so partition
// sizes differ by at most one and no shipped partition is empty, for every
// rows/workers ratio including fewer rows than workers.
func TestClusterPartitioningBalanced(t *testing.T) {
	cases := []struct{ rows, workers int }{
		{10, 3}, {11, 3}, {12, 3}, {7, 7}, {3, 5}, {1, 4}, {0, 3}, {100, 7},
	}
	for _, tc := range cases {
		cl := inProcessCluster(t, tc.workers)
		x, e := oneHot(tc.rows)
		if err := cl.Setup(context.Background(), x, e); err != nil {
			t.Fatalf("rows=%d workers=%d: Setup: %v", tc.rows, tc.workers, err)
		}
		wantParts := tc.workers
		if tc.rows < wantParts {
			wantParts = tc.rows
		}
		if len(cl.parts) != wantParts {
			t.Fatalf("rows=%d workers=%d: %d partitions, want %d", tc.rows, tc.workers, len(cl.parts), wantParts)
		}
		minSize, maxSize, total := int(^uint(0)>>1), 0, 0
		for p, part := range cl.parts {
			sz := part.x.Rows()
			if sz == 0 {
				t.Fatalf("rows=%d workers=%d: partition %d is empty", tc.rows, tc.workers, p)
			}
			if sz != len(part.e) {
				t.Fatalf("rows=%d workers=%d: partition %d has %d rows but %d errors", tc.rows, tc.workers, p, sz, len(part.e))
			}
			if sz < minSize {
				minSize = sz
			}
			if sz > maxSize {
				maxSize = sz
			}
			total += sz
		}
		if total != tc.rows {
			t.Fatalf("rows=%d workers=%d: partitions cover %d rows", tc.rows, tc.workers, total)
		}
		if wantParts > 0 && maxSize-minSize > 1 {
			t.Fatalf("rows=%d workers=%d: partition sizes range [%d,%d], want spread <= 1", tc.rows, tc.workers, minSize, maxSize)
		}
	}
}

// TestClusterFewerRowsThanWorkers: with n < workers only n workers receive a
// partition, yet Eval still aggregates every row exactly.
func TestClusterFewerRowsThanWorkers(t *testing.T) {
	cl := inProcessCluster(t, 5)
	x, e := oneHot(3) // rows hit columns 0,1,0
	if err := cl.Setup(context.Background(), x, e); err != nil {
		t.Fatal(err)
	}
	ss, se, sm, err := cl.Eval(context.Background(), [][]int{{0}, {1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ss[0] != 2 || ss[1] != 1 || se[0] != 2 || se[1] != 1 || sm[0] != 1 || sm[1] != 1 {
		t.Fatalf("ss=%v se=%v sm=%v, want [2 1] [2 1] [1 1]", ss, se, sm)
	}
}

// TestClusterZeroRows: an empty dataset is degenerate but must not crash —
// no partitions are shipped and every statistic is zero.
func TestClusterZeroRows(t *testing.T) {
	cl := inProcessCluster(t, 3)
	x, e := oneHot(0)
	if err := cl.Setup(context.Background(), x, e); err != nil {
		t.Fatal(err)
	}
	ss, se, sm, err := cl.Eval(context.Background(), [][]int{{0}, {1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ss {
		if ss[i] != 0 || se[i] != 0 || sm[i] != 0 {
			t.Fatalf("ss=%v se=%v sm=%v, want all zero on empty data", ss, se, sm)
		}
	}
}

// TestClusterSingleRow: one row, many workers.
func TestClusterSingleRow(t *testing.T) {
	cl := inProcessCluster(t, 4)
	x, e := oneHot(1)
	if err := cl.Setup(context.Background(), x, e); err != nil {
		t.Fatal(err)
	}
	ss, se, _, err := cl.Eval(context.Background(), [][]int{{0}, {1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ss[0] != 1 || ss[1] != 0 || se[0] != 1 || se[1] != 0 {
		t.Fatalf("ss=%v se=%v, want [1 0] each", ss, se)
	}
}
