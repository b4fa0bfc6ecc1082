package dist

import (
	"context"
	"math"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sliceline/internal/matrix"
)

// countingListener counts accepted connections — the observable cost of
// redials.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestRemoteWorkerSingleFlightRedial: when many concurrent calls hit the
// same dead connection, exactly one of them dials — the rest share the
// fresh connection instead of racing to replace each other's.
func TestRemoteWorkerSingleFlightRedial(t *testing.T) {
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
	if err := w.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Kill the worker and restart it behind an accept counter.
	srv.Stop()
	var lis2 net.Listener
	for i := 0; i < 100; i++ {
		lis2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	counter := &countingListener{Listener: lis2}
	srv2, err := NewServer(counter)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve() //nolint:errcheck // lifetime bound to Stop
	defer srv2.Stop()

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Ping(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := counter.accepted.Load(); got != 1 {
		t.Fatalf("%d connections dialed for one outage, want 1 (single-flight)", got)
	}
}

// TestRemoteWorkerBoundedRetry: a permanently dead worker fails calls after
// the configured attempts instead of retrying forever.
func TestRemoteWorkerBoundedRetry(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // lifetime bound to Stop
	w, err := DialOpts(lis.Addr().String(), DialOptions{
		MaxAttempts: 2,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv.Stop() // never comes back
	start := time.Now()
	if err := w.Ping(context.Background()); err == nil {
		t.Fatal("expected error pinging a permanently dead worker")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("bounded retry took %v; backoff is not bounded", elapsed)
	}
}

// TestRemoteWorkerCallDeadline: a call whose context expires returns
// promptly and the next call transparently recovers on a fresh connection.
func TestRemoteWorkerCallDeadline(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // lifetime bound to Stop
	defer srv.Stop()
	w, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// An already-expired context: the call must not block.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.Ping(ctx); err == nil {
		t.Fatal("expected error from expired context")
	}
	// The poisoned connection is replaced on the next call.
	if err := w.Ping(context.Background()); err != nil {
		t.Fatalf("recovery ping: %v", err)
	}
}

// TestServerShutdownGraceful: Shutdown refuses new connections, lets
// in-flight calls finish, and returns nil once drained.
func TestServerShutdownGraceful(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // lifetime bound to Shutdown
	addr := lis.Addr().String()

	w, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// A sizeable partition so the concurrent Eval plausibly overlaps the
	// drain; the test passes either way, it only requires that an accepted
	// call is never cut off.
	n := 50000
	data := make([]float64, 2*n)
	e := make([]float64, n)
	for i := 0; i < n; i++ {
		data[2*i+i%2] = 1
		e[i] = 1
	}
	x := matrix.CSRFromDense(matrix.NewDenseData(n, 2, data))
	if err := w.Load(context.Background(), 0, x, e); err != nil {
		t.Fatal(err)
	}

	evalErr := make(chan error, 1)
	go func() {
		_, _, _, err := w.Eval(context.Background(), 0, [][]int{{0}, {1}, {0, 1}}, 2, 0)
		evalErr <- err
	}()
	time.Sleep(2 * time.Millisecond) // let the call reach the server
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-evalErr; err != nil {
		t.Fatalf("in-flight Eval was cut off by graceful shutdown: %v", err)
	}
	// New connections must be refused now.
	if _, err := Dial(addr); err == nil {
		t.Fatal("expected dial failure after shutdown")
	}
}

// TestServiceRejectsMalformedCalls: a malformed Load or Eval gets an error
// reply, never a panic — net/rpc calls service methods without a recover, so
// a panic would end the worker process. A rejected call stores nothing and
// leaves held partitions intact, and the same Service then serves
// well-formed calls with correct statistics.
func TestServiceRejectsMalformedCalls(t *testing.T) {
	// Four rows over two one-hot columns: rows 0 and 2 in column 0, rows 1,
	// 2 and 3 in column 1.
	good := func() *LoadArgs {
		return &LoadArgs{
			Part: 7, Rows: 4, Cols: 2,
			RowPtr: []int{0, 1, 2, 4, 5},
			ColIdx: []int{0, 1, 0, 1, 1},
			Val:    []float64{1, 1, 1, 1, 1},
			Err:    []float64{1, 0, 1, 0.5},
		}
	}
	badLoads := []struct {
		name   string
		mutate func(*LoadArgs)
	}{
		{"rowPtr ends past the column ids", func(a *LoadArgs) { a.RowPtr[4] = 6 }},
		{"rowPtr starts above zero", func(a *LoadArgs) { a.RowPtr[0] = 1 }},
		{"rowPtr decreases", func(a *LoadArgs) { a.RowPtr[2] = 0 }},
		{"short rowPtr", func(a *LoadArgs) { a.RowPtr = a.RowPtr[:4] }},
		{"fewer values than column ids", func(a *LoadArgs) { a.Val = a.Val[:4] }},
		{"column id past Cols", func(a *LoadArgs) { a.ColIdx[3] = 2 }},
		{"negative column id", func(a *LoadArgs) { a.ColIdx[0] = -1 }},
		{"negative row count", func(a *LoadArgs) { a.Rows, a.RowPtr, a.Err = -1, nil, nil }},
		{"short error vector", func(a *LoadArgs) { a.Err = a.Err[:3] }},
		{"NaN error", func(a *LoadArgs) { a.Err[1] = math.NaN() }},
		{"negative error", func(a *LoadArgs) { a.Err[1] = -1 }},
	}
	var svc Service
	for _, tc := range badLoads {
		a := good()
		tc.mutate(a)
		if err := svc.Load(a, &LoadReply{}); err == nil {
			t.Errorf("Load accepted a partition with %s", tc.name)
		}
	}
	var held PartsReply
	if err := svc.Parts(&PartsArgs{}, &held); err != nil || len(held.Keys) != 0 {
		t.Fatalf("rejected loads stored partitions %v (err %v)", held.Keys, err)
	}

	if err := svc.Load(good(), &LoadReply{}); err != nil {
		t.Fatalf("well-formed Load: %v", err)
	}
	// Re-shipping the held key with a bad partition must keep the old one.
	for _, tc := range badLoads {
		a := good()
		tc.mutate(a)
		if err := svc.Load(a, &LoadReply{}); err == nil {
			t.Errorf("Load over a held key accepted a partition with %s", tc.name)
		}
	}
	// Several candidates per call: the kernel shards them across goroutines,
	// where an out-of-range column used to panic beyond any recover.
	for _, cols := range [][][]int{
		{{0}, {1}, {5}},
		{{0}, {-1}, {1}},
		{{1, 0}, {0}, {1}},
		{{0, 0}, {0}, {1}},
	} {
		var reply EvalReply
		if err := svc.Eval(&EvalArgs{Part: 7, Cols: cols, Level: 1}, &reply); err == nil {
			t.Errorf("Eval accepted candidates %v on a 2-column partition", cols)
		}
	}

	for _, tc := range []struct {
		cols       [][]int
		ss, se, sm []float64
	}{
		{[][]int{{0}, {1}}, []float64{2, 3}, []float64{2, 1.5}, []float64{1, 1}},
		{[][]int{{0, 1}}, []float64{1}, []float64{1}, []float64{1}},
	} {
		var reply EvalReply
		if err := svc.Eval(&EvalArgs{Part: 7, Cols: tc.cols, Level: len(tc.cols[0])}, &reply); err != nil {
			t.Fatalf("well-formed Eval %v: %v", tc.cols, err)
		}
		if !reflect.DeepEqual(reply.SS, tc.ss) || !reflect.DeepEqual(reply.SE, tc.se) || !reflect.DeepEqual(reply.SM, tc.sm) {
			t.Fatalf("Eval %v = (%v, %v, %v), want (%v, %v, %v)",
				tc.cols, reply.SS, reply.SE, reply.SM, tc.ss, tc.se, tc.sm)
		}
	}
}
