package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/rpc"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sliceline/internal/core"
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
		_, _, _, err := w.Eval(context.Background(), 0, appendInt32s(nil, []int32{0, 1, 0, 1}), 1)
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
// well-formed calls with correct statistics, from either payload.
func TestServiceRejectsMalformedCalls(t *testing.T) {
	// Four rows over two one-hot columns: rows 0 and 2 in column 0, rows 1,
	// 2 and 3 in column 1.
	good := func() *LoadArgs {
		return &LoadArgs{
			Version: wireVersion, Part: 7, Rows: 4, Cols: 2,
			RowPtr32: appendInt32s(nil, []int{0, 1, 2, 4, 5}),
			ColIdx32: appendInt32s(nil, []int{0, 1, 0, 1, 1}),
			Err:      []float64{1, 0, 1, 0.5},
		}
	}
	// The same partition as packed words: column 0 is 0b0101, column 1
	// 0b1110.
	packed := func() *LoadArgs {
		a := good()
		a.RowPtr32, a.ColIdx32 = nil, nil
		a.Bits = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0b0101), 0b1110)
		return a
	}
	set32 := func(b []byte, i, v int) { binary.LittleEndian.PutUint32(b[4*i:], uint32(int32(v))) }
	badLoads := []struct {
		name   string
		base   func() *LoadArgs
		mutate func(*LoadArgs)
	}{
		{"rowPtr ends past the column ids", good, func(a *LoadArgs) { set32(a.RowPtr32, 4, 6) }},
		{"rowPtr starts above zero", good, func(a *LoadArgs) { set32(a.RowPtr32, 0, 1) }},
		{"rowPtr decreases", good, func(a *LoadArgs) { set32(a.RowPtr32, 2, 0) }},
		{"short rowPtr", good, func(a *LoadArgs) { a.RowPtr32 = a.RowPtr32[:16] }},
		{"rowPtr bytes not whole int32s", good, func(a *LoadArgs) { a.RowPtr32 = append(a.RowPtr32, 0) }},
		{"column id bytes not whole int32s", good, func(a *LoadArgs) { a.ColIdx32 = a.ColIdx32[:19] }},
		{"column id past Cols", good, func(a *LoadArgs) { set32(a.ColIdx32, 3, 2) }},
		{"negative column id", good, func(a *LoadArgs) { set32(a.ColIdx32, 0, -1) }},
		{"repeated column id in a row", good, func(a *LoadArgs) { set32(a.ColIdx32, 3, 0) }},
		{"descending column ids in a row", good, func(a *LoadArgs) { set32(a.ColIdx32, 2, 1); set32(a.ColIdx32, 3, 0) }},
		{"no payload", good, func(a *LoadArgs) { a.RowPtr32, a.ColIdx32 = nil, nil }},
		{"both payloads", good, func(a *LoadArgs) { a.Bits = packed().Bits }},
		{"Cols past the int32 ids", good, func(a *LoadArgs) { a.Cols = math.MaxInt32 + 1 }},
		{"one packed word short", packed, func(a *LoadArgs) { a.Bits = a.Bits[:8] }},
		{"one packed word extra", packed, func(a *LoadArgs) { a.Bits = append(a.Bits, make([]byte, 8)...) }},
		{"packed bytes not whole words", packed, func(a *LoadArgs) { a.Bits = a.Bits[:15] }},
		{"packed bit past the last row", packed, func(a *LoadArgs) { a.Bits[0] |= 1 << 4 }},
		{"packed words for another column count", packed, func(a *LoadArgs) { a.Cols = 3 }},
		{"packed words for another row count", packed, func(a *LoadArgs) { a.Rows, a.Err = 65, make([]float64, 65) }},
		{"negative row count", good, func(a *LoadArgs) { a.Rows, a.RowPtr32, a.Err = -1, nil, nil }},
		{"short error vector", good, func(a *LoadArgs) { a.Err = a.Err[:3] }},
		{"NaN error", packed, func(a *LoadArgs) { a.Err[1] = math.NaN() }},
		{"negative error", good, func(a *LoadArgs) { a.Err[1] = -1 }},
		{"an unversioned driver", good, func(a *LoadArgs) { a.Version = 0 }},
		{"a newer wire version", packed, func(a *LoadArgs) { a.Version = wireVersion + 1 }},
	}
	var svc Service
	for _, tc := range badLoads {
		a := tc.base()
		tc.mutate(a)
		if err := svc.Load(a, &LoadReply{}); err == nil {
			t.Errorf("Load accepted a partition with %s", tc.name)
		}
	}
	var held PartsReply
	if err := svc.Parts(&PartsArgs{}, &held); err != nil || len(held.Keys) != 0 {
		t.Fatalf("rejected loads stored partitions %v (err %v)", held.Keys, err)
	}

	for _, base := range []func() *LoadArgs{good, packed} {
		if err := svc.Load(base(), &LoadReply{}); err != nil {
			t.Fatalf("well-formed Load: %v", err)
		}
		// Re-shipping the held key with a bad partition must keep the old one.
		for _, tc := range badLoads {
			a := tc.base()
			tc.mutate(a)
			if err := svc.Load(a, &LoadReply{}); err == nil {
				t.Errorf("Load over a held key accepted a partition with %s", tc.name)
			}
		}
		arena := func(ids ...int) []byte { return appendInt32s(nil, ids) }
		// Several candidates per call: the kernel shards them across
		// goroutines, where an out-of-range column used to panic beyond any
		// recover.
		for _, tc := range []struct {
			name  string
			cands []byte
			level int
		}{
			{"a column id past Cols", arena(0, 1, 5), 1},
			{"a negative column id", arena(0, -1, 1), 1},
			{"descending ids", arena(1, 0, 0, 1), 2},
			{"a repeated id", arena(0, 0, 0, 1), 2},
			{"bytes that are not whole int32s", arena(0, 1)[:7], 1},
			{"ids that are not whole candidates", arena(0, 1, 1), 2},
			{"Level 0", arena(), 0},
			{"a negative Level", arena(0, 1), -1},
		} {
			var reply EvalReply
			args := &EvalArgs{Version: wireVersion, Part: 7, Level: tc.level, Cands: tc.cands}
			if err := svc.Eval(args, &reply); err == nil {
				t.Errorf("Eval accepted %s on a 2-column partition", tc.name)
			}
		}
		for _, version := range []int{0, wireVersion + 1} {
			args := &EvalArgs{Version: version, Part: 7, Level: 1, Cands: arena(0)}
			if err := svc.Eval(args, &EvalReply{}); err == nil || !strings.Contains(err.Error(), "wire version") {
				t.Errorf("Eval at wire version %d: err %v, want a version error", version, err)
			}
		}
		for _, tc := range []struct {
			cols       [][]int
			ss, se, sm []float64
		}{
			{[][]int{{0}, {1}}, []float64{2, 3}, []float64{2, 1.5}, []float64{1, 1}},
			{[][]int{{0, 1}}, []float64{1}, []float64{1}, []float64{1}},
		} {
			args := evalCands(7, len(tc.cols[0]), tc.cols...)
			var reply EvalReply
			if err := svc.Eval(args, &reply); err != nil {
				t.Fatalf("well-formed Eval %v: %v", tc.cols, err)
			}
			if !reflect.DeepEqual(reply.SS, tc.ss) || !reflect.DeepEqual(reply.SE, tc.se) || !reflect.DeepEqual(reply.SM, tc.sm) {
				t.Fatalf("Eval %v = (%v, %v, %v), want (%v, %v, %v)",
					tc.cols, reply.SS, reply.SE, reply.SM, tc.ss, tc.se, tc.sm)
			}
		}
	}
}

// unversionedLoadArgs is the Load message of the wire before it had a
// version: a []int CSR and the errors.
type unversionedLoadArgs struct {
	Part, Rows, Cols int
	RowPtr, ColIdx   []int
	Err              []float64
}

// versionErr reports whether err is the worker's refusal of wire version v,
// naming both versions and the remedy.
func versionErr(err error, v int) bool {
	return err != nil && strings.Contains(err.Error(), fmt.Sprintf("wire version %d and this worker version %d", v, wireVersion)) &&
		strings.Contains(err.Error(), "upgrade the driver and workers together")
}

// TestServiceRefusesOtherWireVersions: an unversioned driver's Load decodes
// into LoadArgs without a gob type error and is refused by its version, as
// is a version-1 or a newer driver's Load and a newer Eval, and each refusal
// names both versions.
func TestServiceRefusesOtherWireVersions(t *testing.T) {
	var buf bytes.Buffer
	old := unversionedLoadArgs{Part: 3, Rows: 2, Cols: 2, RowPtr: []int{0, 1, 2}, ColIdx: []int{0, 1}, Err: []float64{1, 0}}
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	var args LoadArgs
	if err := gob.NewDecoder(&buf).Decode(&args); err != nil {
		t.Fatalf("an unversioned Load does not decode: %v", err)
	}
	if args.Part != 3 || args.Rows != 2 || args.Cols != 2 || len(args.Err) != 2 {
		t.Fatalf("an unversioned Load decoded as %+v", args)
	}
	var svc Service
	if err := svc.Load(&args, &LoadReply{}); !versionErr(err, 0) {
		t.Fatalf("unversioned Load: err %v, want a version refusal", err)
	}

	x := matrix.CSRFromDense(matrix.NewDenseData(2, 2, []float64{1, 0, 0, 1}))
	for _, v := range []int{1, wireVersion + 1} {
		other := loadArgs(3, x, []float64{1, 0})
		other.Version = v
		if err := svc.Load(other, &LoadReply{}); !versionErr(err, v) {
			t.Fatalf("version %d Load: err %v, want a version refusal", v, err)
		}
	}
	if err := svc.Load(loadArgs(3, x, []float64{1, 0}), &LoadReply{}); err != nil {
		t.Fatal(err)
	}
	eval := evalCands(3, 1, []int{0})
	eval.Version = wireVersion + 1
	if err := svc.Eval(eval, &EvalReply{}); !versionErr(err, wireVersion+1) {
		t.Fatalf("newer Eval: err %v, want a version refusal", err)
	}
}

// evalCands lays candidates of one width out as a version-2 Eval message,
// the arena Cluster.Eval encodes.
func evalCands(part, level int, cols ...[]int) *EvalArgs {
	a := &EvalArgs{Version: wireVersion, Part: part, Level: level}
	for _, cand := range cols {
		a.Cands = appendInt32s(a.Cands, cand)
	}
	return a
}

// blockSizeEvalArgs is version 2's Eval message as drivers that still sent
// a CSR block size shipped it.
type blockSizeEvalArgs struct {
	Version, Part, Level, BlockSize int
	Cands                           []byte
}

// TestEvalArgsWithoutBlockSizeKeepsVersion: dropping the block size left
// the Eval message at version 2, because gob skips a field its receiver
// lacks. An older driver's message, block size set, decodes on this worker
// and evaluates to the same bits as this driver's; this driver's message
// decodes on an older worker with block size 0, the automatic size.
func TestEvalArgsWithoutBlockSizeKeepsVersion(t *testing.T) {
	// 200 columns over 6 rows with fractional errors: the CSR kernel, the
	// only one that read a block size.
	x := matrix.CSRFromTriples(6, 200, []matrix.Triple{
		{Row: 0, Col: 3}, {Row: 0, Col: 14}, {Row: 1, Col: 3}, {Row: 1, Col: 90},
		{Row: 2, Col: 14}, {Row: 3, Col: 3}, {Row: 3, Col: 14}, {Row: 3, Col: 90},
		{Row: 4, Col: 14}, {Row: 4, Col: 90}, {Row: 5, Col: 3},
	})
	e := []float64{0.5, 0.25, 1, 0.75, 0.125, 0}
	if core.NewKernel(x, e, nil).UsesBitset() {
		t.Fatal("the partition takes the bitset kernel; the test needs the CSR kernel")
	}
	var svc Service
	if err := svc.Load(loadArgs(3, x, e), &LoadReply{}); err != nil {
		t.Fatal(err)
	}
	cur := evalCands(3, 2, []int{3, 14}, []int{3, 90}, []int{14, 90})
	var want EvalReply
	if err := svc.Eval(cur, &want); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	old := blockSizeEvalArgs{Version: cur.Version, Part: cur.Part, Level: cur.Level, BlockSize: 64, Cands: cur.Cands}
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	var got EvalArgs
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("an older driver's Eval does not decode: %v", err)
	}
	var reply EvalReply
	if err := svc.Eval(&got, &reply); err != nil {
		t.Fatalf("an older driver's Eval is refused: %v", err)
	}
	if !reflect.DeepEqual(reply, want) {
		t.Fatalf("an older driver's Eval returned %+v, this driver's %+v", reply, want)
	}

	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(cur); err != nil {
		t.Fatal(err)
	}
	var back blockSizeEvalArgs
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("this driver's Eval does not decode on an older worker: %v", err)
	}
	if want := (blockSizeEvalArgs{Version: wireVersion, Part: 3, Level: 2, Cands: cur.Cands}); !reflect.DeepEqual(back, want) {
		t.Fatalf("this driver's Eval decoded on an older worker as %+v, want %+v", back, want)
	}
}

// unversionedDriver is a RemoteWorker whose Load sends the unversioned
// wire's message.
type unversionedDriver struct{ *RemoteWorker }

func (w unversionedDriver) Load(ctx context.Context, part int, x *matrix.CSR, e []float64) error {
	rowPtr, colIdx := x.Components()
	old := &unversionedLoadArgs{Part: part, Rows: x.Rows(), Cols: x.Cols(), RowPtr: rowPtr, ColIdx: colIdx, Err: e}
	return w.call(ctx, "Worker.Load", old, &LoadReply{})
}

// TestTCPSetupReportsWireVersionSkew: over TCP the worker's refusal reaches
// the caller, so a skewed fleet fails Setup with an error that says which
// partition no worker accepts and, wrapped inside, why.
func TestTCPSetupReportsWireVersionSkew(t *testing.T) {
	addrs, shutdown := startWorkers(t, 1)
	defer shutdown()
	w, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClusterOpts([]Worker{unversionedDriver{w}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	x := matrix.CSRFromDense(matrix.NewDenseData(2, 2, []float64{1, 0, 0, 1}))
	err = cl.Setup(context.Background(), x, []float64{1, 0})
	if err == nil || !strings.Contains(err.Error(), "no live worker accepts partition 0") {
		t.Fatalf("Setup on a skewed fleet: err %v", err)
	}
	var se rpc.ServerError
	if !errors.As(err, &se) || !versionErr(se, 0) {
		t.Fatalf("Setup error %v does not wrap the worker's version refusal", err)
	}
}

// TestLoadArgsPayloadFollowsKernel: the driver ships packed words exactly
// when core.NewKernel picks the bitset kernel for the partition, int32 CSR
// ids otherwise, and never both; a binary partition (the bitset kernel over
// 0/1 errors) ships its binary layout and no errors, any other partition its
// errors. The worker's kernel makes the same choice.
func TestLoadArgsPayloadFollowsKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name       string
		rows, cols int
		perRow     int
	}{
		{"dense one-hot", 300, 12, 3},
		{"sparse wide domains", 300, 400, 2},
		{"at the break-even density", 64, 64, 1},
		{"no rows", 0, 5, 0},
		{"no columns", 7, 0, 0},
	} {
		data := make([]float64, tc.rows*tc.cols)
		for i := 0; i < tc.rows; i++ {
			for _, c := range rng.Perm(tc.cols)[:tc.perRow] {
				data[i*tc.cols+c] = 1
			}
		}
		x := matrix.CSRFromDense(matrix.NewDenseData(tc.rows, tc.cols, data))
		binaryE, contE := make([]float64, tc.rows), make([]float64, tc.rows)
		for i := range binaryE {
			binaryE[i] = float64(rng.Intn(2))
			contE[i] = float64(rng.Intn(8)) / 4
		}
		if tc.rows > 0 {
			contE[0] = 0.5 // at least one error that is not 0 or 1
		}
		for _, e := range [][]float64{binaryE, contE} {
			want := core.NewKernel(x, e, nil)
			a := loadArgs(1, x, e)
			packed, csr := len(a.Bits) > 0, len(a.RowPtr32) > 0
			if packed != want.UsesBitset() || csr == want.UsesBitset() || (packed && len(a.ColIdx32) > 0) {
				t.Errorf("%s: kernel bitset %v, payload packed %v csr %v", tc.name, want.UsesBitset(), packed, csr)
			}
			if a.Binary != want.Binary() || (a.Binary && (a.Err != nil || a.ErrRows != want.ErrRows())) || (!a.Binary && len(a.Err) != tc.rows) {
				t.Errorf("%s: kernel binary %v with %d erring rows, payload binary %v with %d erring rows and %d errors",
					tc.name, want.Binary(), want.ErrRows(), a.Binary, a.ErrRows, len(a.Err))
			}
			k, err := a.kernel()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if k.UsesBitset() != want.UsesBitset() || k.Binary() != want.Binary() || k.Rows() != tc.rows || k.Cols() != tc.cols {
				t.Errorf("%s: worker kernel bitset %v binary %v on %d×%d, driver's %v %v on %d×%d",
					tc.name, k.UsesBitset(), k.Binary(), k.Rows(), k.Cols(), want.UsesBitset(), want.Binary(), tc.rows, tc.cols)
			}
		}
	}
	// The dense partition exercises both rules.
	x := matrix.CSRFromDense(matrix.NewDenseData(2, 1, []float64{1, 1}))
	if a := loadArgs(1, x, []float64{1, 0}); !a.Binary || a.Err != nil || a.ErrRows != 1 {
		t.Errorf("0/1 errors on a bitset partition: payload binary %v with %d erring rows and errors %v", a.Binary, a.ErrRows, a.Err)
	}
	if a := loadArgs(1, x, []float64{0.5, 0}); a.Binary || len(a.Bits) == 0 || len(a.Err) != 2 {
		t.Errorf("continuous errors on a bitset partition: payload binary %v, %d packed bytes, errors %v", a.Binary, len(a.Bits), a.Err)
	}
}

// TestEvalWireAllocsFlat: a gob round trip of one level's EvalArgs, the
// worker's Eval on it and the reply's round trip allocate the same small
// number of times at 1k and at 20k candidates — the arena is one byte
// array, not a slice per candidate.
func TestEvalWireAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	// A collection empties sync.Pool, and gob then regrows a pooled encode
	// buffer: a count that depends on when the collector runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer matrix.SetMaxWorkers(matrix.SetMaxWorkers(1))
	// Four features of 55 values: dense enough for the bitset kernel, whose
	// level loop allocates nothing, and wide enough for 20k pairs.
	const rows, feats, dom = 256, 4, 55
	const cols = feats * dom
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, rows*cols)
	e := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for f := 0; f < feats; f++ {
			data[i*cols+f*dom+rng.Intn(dom)] = 1
		}
		e[i] = float64(rng.Intn(2))
	}
	var svc Service
	if err := svc.Load(loadArgs(0, matrix.CSRFromDense(matrix.NewDenseData(rows, cols, data)), e), &LoadReply{}); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		cands := make([][]int, 0, n)
		for a := 0; a < cols && len(cands) < n; a++ {
			for b := a + 1; b < cols && len(cands) < n; b++ {
				cands = append(cands, []int{a, b})
			}
		}
		args := evalCands(0, 2, cands...)
		var req, resp bytes.Buffer
		reqEnc, reqDec := gob.NewEncoder(&req), gob.NewDecoder(&req)
		respEnc, respDec := gob.NewEncoder(&resp), gob.NewDecoder(&resp)
		return testing.AllocsPerRun(10, func() {
			var got EvalArgs
			var reply, back EvalReply
			if err := reqEnc.Encode(args); err != nil {
				t.Fatal(err)
			}
			if err := reqDec.Decode(&got); err != nil {
				t.Fatal(err)
			}
			if err := svc.Eval(&got, &reply); err != nil {
				t.Fatal(err)
			}
			if err := respEnc.Encode(&reply); err != nil {
				t.Fatal(err)
			}
			if err := respDec.Decode(&back); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(20000)
	if small != large || large > 30 {
		t.Fatalf("an Eval round trip allocates %.0f times at 1k candidates and %.0f at 20k, want one small constant", small, large)
	}
}
