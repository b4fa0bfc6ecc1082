package main

import (
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"sliceline/internal/dist"
	"sliceline/internal/matrix"
)

// TestGracefulDrainOnSIGTERM builds the worker binary, runs it, and
// verifies the drain contract: on SIGTERM the process finishes in-flight
// work, stops accepting, and exits 0.
func TestGracefulDrainOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level drain test skipped in short mode")
	}
	bin := filepath.Join(t.TempDir(), "slworker")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building slworker: %v\n%s", err, out)
	}

	// Pick a free port, release it, and hand it to the worker.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	cmd := exec.Command(bin, "-addr", addr, "-drain-timeout", "20s")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // cleanup on failure paths

	// Wait for the worker to come up.
	var w *dist.RemoteWorker
	for i := 0; i < 100; i++ {
		w, err = dist.Dial(addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("worker never came up on %s: %v", addr, err)
	}
	defer w.Close()

	// Ship a large partition so an Eval is plausibly in flight when the
	// signal lands; the contract holds either way.
	n := 100000
	data := make([]float64, 2*n)
	e := make([]float64, n)
	for i := 0; i < n; i++ {
		data[2*i+i%2] = 1
		e[i] = 1
	}
	x := matrix.CSRFromDense(matrix.NewDenseData(n, 2, data))
	ctx := context.Background()
	if err := w.Load(ctx, 0, x, e); err != nil {
		t.Fatal(err)
	}

	evalDone := make(chan error, 1)
	go func() {
		_, _, _, err := w.Eval(ctx, 0, [][]int{{0}, {1}, {0}, {1}}, 1)
		evalDone <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the call reach the worker
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The in-flight Eval must complete, not be cut off. (If it finished
	// before the signal landed, this still holds trivially.)
	if err := <-evalDone; err != nil {
		t.Fatalf("in-flight Eval failed during drain: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("worker did not exit 0 after drain: %v", err)
	}
	// The drained worker must refuse new connections (it has exited).
	if _, err := dist.Dial(addr); err == nil {
		t.Fatal("worker still accepting connections after drain")
	}
}

// TestDrainRefusesNewConnections: connections attempted during the drain
// window are refused while the in-flight call still completes.
func TestDrainRefusesNewConnections(t *testing.T) {
	// This is covered at the library level (dist.Server.Shutdown tests);
	// here we only pin that slworker wires Shutdown, not Stop, into the
	// signal path — by source inspection of the flag it exposes.
	if !strings.Contains(mustReadSource(t), "Shutdown(") {
		t.Fatal("slworker no longer drains via Server.Shutdown")
	}
}

func mustReadSource(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
