package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestVersionFlag(t *testing.T) {
	if code := run([]string{"-version"}); code != 0 {
		t.Fatalf("run(-version) = %d, want 0", code)
	}
}

func TestBadFlag(t *testing.T) {
	if code := run([]string{"-no-such-flag"}); code != 2 {
		t.Fatalf("run(bad flag) = %d, want 2", code)
	}
}

// testCSV mirrors the server package's deterministic planted-slice dataset.
func testCSV(rows int) string {
	var b strings.Builder
	b.WriteString("dev,os,region,err\n")
	for i := 0; i < rows; i++ {
		e := 0.1
		if i%4 == 0 && i%3 == 0 {
			e = 1.0
		}
		fmt.Fprintf(&b, "d%d,o%d,r%d,%g\n", i%4, i%3, i%2, e)
	}
	return b.String()
}

// TestGracefulDrainOnSIGTERM builds slserve, runs it, submits a job, and
// verifies the drain contract: on SIGTERM the process finishes the in-flight
// job and exits 0.
func TestGracefulDrainOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level drain test skipped in short mode")
	}
	bin := filepath.Join(t.TempDir(), "slserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building slserve: %v\n%s", err, out)
	}

	// Pick a free port, release it, and hand it to the service.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	cmd := exec.Command(bin, "-addr", addr, "-drain-timeout", "30s")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // cleanup on failure paths

	// The startup line confirms the listener is live.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() || !strings.Contains(sc.Text(), "listening on") {
		t.Fatalf("unexpected startup output %q (err %v)", sc.Text(), sc.Err())
	}
	go io.Copy(io.Discard, stdout) //nolint:errcheck // drain remaining output

	base := "http://" + addr
	reg, err := json.Marshal(map[string]string{"err": "err", "csv": testCSV(2000)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/datasets", "application/json", bytes.NewReader(reg))
	if err != nil {
		t.Fatalf("registering dataset: %v", err)
	}
	var ds struct {
		ID string `json:"id"`
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ds); err != nil {
		t.Fatal(err)
	}

	// Submit a job, then signal while it is plausibly still running; the
	// drain contract holds either way.
	spec := fmt.Sprintf(`{"dataset":%q,"config":{"k":8,"sigma":2}}`, ds.ID)
	resp, err = http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		t.Fatalf("submitting job: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("slserve exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("slserve did not exit within 60s of SIGTERM")
	}

	// The listener must be gone.
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Error("healthz still answers after drain")
	}
}

// TestWorkersAndListenWorkersRefused: the fleet is a fixed -workers list or
// announced members, never both. slserve exits 2 before building anything
// and says why in one line that names both flags.
func TestWorkersAndListenWorkersRefused(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "127.0.0.1:1", "-listen-workers", "127.0.0.1:0"})
	}()
	var code int
	select {
	case code = <-done:
	case <-time.After(10 * time.Second):
		os.Stderr = stderr
		t.Fatal("slserve started with both -workers and -listen-workers")
	}
	os.Stderr = stderr
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "-workers") || !strings.Contains(lines[0], "-listen-workers") {
		t.Fatalf("stderr %q: want one line naming -workers and -listen-workers", out)
	}
}
