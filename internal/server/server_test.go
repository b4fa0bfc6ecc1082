package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/obs"
)

// testCSV renders a small deterministic dataset with a planted slice
// (dev=d0 & os=o0 rows carry error 1) and an explicit err column, so
// registrations in err-column mode are fully reproducible.
func testCSV(rows int) string {
	var b strings.Builder
	b.WriteString("dev,os,region,err\n")
	for i := 0; i < rows; i++ {
		dev := fmt.Sprintf("d%d", i%4)
		os := fmt.Sprintf("o%d", i%3)
		region := fmt.Sprintf("r%d", i%2)
		e := 0.1
		if i%4 == 0 && i%3 == 0 {
			e = 1.0
		}
		fmt.Fprintf(&b, "%s,%s,%s,%g\n", dev, os, region, e)
	}
	return b.String()
}

// newTestServer builds a Server plus an httptest front end and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// newHTTPTestServer wraps an existing Server in an httptest front end only
// (the caller owns the Server's shutdown).
func newHTTPTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// registerCSV registers a dataset through the JSON body form. The metadata
// still arrives as a query string so the many call sites read unchanged; a
// bins value that is not an integer is forwarded as a JSON string, which the
// strict decoder rejects — preserving the malformed-input cases.
func registerCSV(t *testing.T, ts *httptest.Server, csv, query string) (DatasetInfo, int) {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatalf("parsing query %q: %v", query, err)
	}
	req := map[string]any{"csv": csv}
	for _, k := range []string{"name", "label", "task", "err"} {
		if v := q.Get(k); v != "" {
			req[k] = v
		}
	}
	if b := q.Get("bins"); b != "" {
		if n, aerr := strconv.Atoi(b); aerr == nil {
			req["bins"] = n
		} else {
			req["bins"] = b
		}
	}
	js, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal registration: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatalf("POST /v1/datasets: %v", err)
	}
	defer resp.Body.Close()
	var info DatasetInfo
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatalf("decoding dataset info: %v (%s)", err, body)
		}
	}
	return info, resp.StatusCode
}

func postJob(t *testing.T, ts *httptest.Server, spec any) (JobInfo, int, string) {
	t.Helper()
	var body io.Reader
	switch v := spec.(type) {
	case string:
		body = strings.NewReader(v)
	default:
		js, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal spec: %v", err)
		}
		body = strings.NewReader(string(js))
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var info JobInfo
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &info); err != nil {
			t.Fatalf("decoding job info: %v (%s)", err, raw)
		}
	}
	return info, resp.StatusCode, string(raw)
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobInfo {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decoding job info: %v", err)
	}
	return info
}

// waitJob polls until the job reaches a terminal status.
func waitJob(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info := getJob(t, ts, id)
		if jobState(info.Status).terminal() {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v", id, info.Status, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthzReportsVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2, QueueDepth: 4})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	defer resp.Body.Close()
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.Version == "" {
		t.Error("healthz did not report a version")
	}
	if h.PoolSize != 2 || h.QueueCap != 4 {
		t.Errorf("pool/queue = %d/%d, want 2/4", h.PoolSize, h.QueueCap)
	}
}

func TestDatasetRegistrationIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Metrics: reg})
	csv := testCSV(24)

	first, code := registerCSV(t, ts, csv, "err=err&name=demo")
	if code != http.StatusCreated {
		t.Fatalf("first registration: status %d", code)
	}
	if first.Reused {
		t.Error("first registration reported reused")
	}
	if first.Rows != 24 || first.Features != 3 {
		t.Errorf("rows/features = %d/%d, want 24/3", first.Rows, first.Features)
	}

	second, code := registerCSV(t, ts, csv, "err=err&name=demo")
	if code != http.StatusOK {
		t.Fatalf("re-registration: status %d", code)
	}
	if !second.Reused || second.ID != first.ID {
		t.Errorf("re-registration: reused=%v id=%s, want reused of %s", second.Reused, second.ID, first.ID)
	}
	if s.reg.len() != 1 {
		t.Errorf("registry holds %d datasets, want 1", s.reg.len())
	}
	if v := s.ob.datasets.Value(); v != 1 {
		t.Errorf("sl_server_datasets_registered_total = %d, want 1", v)
	}
}

func TestDatasetRegistrationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, csv, query string
	}{
		{"no mode", testCSV(8), ""},
		{"bad bins", testCSV(8), "err=err&bins=zero"},
		{"missing err column", testCSV(8), "err=nope"},
		{"non-numeric err column", "a,err\nx,bad\ny,worse\n", "err=err"},
		{"empty body", "", "err=err"},
		{"ragged rows", "a,b,err\nx,y,1\nz,2\n", "err=err"},
	}
	for _, tc := range cases {
		if _, code := registerCSV(t, ts, tc.csv, tc.query); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	info, code := registerCSV(t, ts, testCSV(12), "err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}

	if _, code, _ := postJob(t, ts, JobSpec{Dataset: "ds_nope"}); code != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d, want 404", code)
	}
	if _, code, _ := postJob(t, ts, `{"dataset":"`+info.ID+`","surprise":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", code)
	}
	// The retired kernel knobs are unknown fields now, not silently ignored.
	for _, knob := range []string{`"bitset":"on"`, `"dense":true`} {
		body := `{"dataset":"` + info.ID + `","config":{` + knob + `}}`
		if _, err := DecodeJobSpec(strings.NewReader(body)); !errors.Is(err, ErrBadJobSpec) || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("config {%s}: DecodeJobSpec error %v, want an unknown-field ErrBadJobSpec", knob, err)
		}
		if _, code, _ := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("config {%s}: status %d, want 400", knob, code)
		}
	}
	if _, code, _ := postJob(t, ts, `{"dataset":"`+info.ID+`"} {"trailing":true}`); code != http.StatusBadRequest {
		t.Errorf("trailing document: status %d, want 400", code)
	}
	if _, code, _ := postJob(t, ts, JobSpec{Dataset: info.ID, Evaluator: "quantum"}); code != http.StatusBadRequest {
		t.Errorf("unknown evaluator: status %d, want 400", code)
	}
	if _, code, _ := postJob(t, ts, `{"dataset":"`+info.ID+`","config":{"alpha":1e999}}`); code != http.StatusBadRequest {
		t.Errorf("unrepresentable alpha: status %d, want 400", code)
	}
	// Dist without workers is rejected up front, not at execution time.
	if _, code, _ := postJob(t, ts, JobSpec{Dataset: info.ID, Evaluator: EvalDist}); code != http.StatusBadRequest {
		t.Errorf("dist without workers: status %d, want 400", code)
	}
}

// blockingStub replaces Server.runJob with a runner that parks until
// released (or until the job's context ends), so admission-control and
// cancellation paths can be driven deterministically.
type blockingStub struct {
	release chan struct{}
	started chan string // job ids that actually reached a worker
}

func newBlockingStub(s *Server, buf int) *blockingStub {
	st := &blockingStub{
		release: make(chan struct{}),
		started: make(chan string, buf),
	}
	s.runJob = func(ctx context.Context, j *job) (*core.Result, error) {
		st.started <- j.id
		select {
		case <-st.release:
			return &core.Result{N: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return st
}

func TestAdmissionControl429(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 1, Metrics: reg})
	stub := newBlockingStub(s, 8)
	info, _ := registerCSV(t, ts, testCSV(12), "err=err")
	spec := JobSpec{Dataset: info.ID}

	// First job occupies the single worker.
	running, code, _ := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first job: status %d", code)
	}
	<-stub.started

	// Second job fills the queue. Distinct config avoids the result cache.
	queued, code, _ := postJob(t, ts, JobSpec{Dataset: info.ID, Config: JobConfig{K: 3}})
	if code != http.StatusAccepted {
		t.Fatalf("second job: status %d", code)
	}

	// Third submission must bounce with 429.
	_, code, body := postJob(t, ts, JobSpec{Dataset: info.ID, Config: JobConfig{K: 5}})
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: status %d (%s), want 429", code, body)
	}
	if v := s.ob.rejected.Value(); v != 1 {
		t.Errorf("sl_server_jobs_rejected_total = %d, want 1", v)
	}

	close(stub.release)
	for _, id := range []string{running.ID, queued.ID} {
		if got := waitJob(t, ts, id, 5*time.Second); got.Status != string(jobDone) {
			t.Errorf("job %s finished %q, want done", id, got.Status)
		}
	}
}

func TestCancelQueuedJobFreesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 4, Metrics: obs.NewRegistry()})
	stub := newBlockingStub(s, 8)
	info, _ := registerCSV(t, ts, testCSV(12), "err=err")

	blocker, _, _ := postJob(t, ts, JobSpec{Dataset: info.ID})
	<-stub.started
	queued, _, _ := postJob(t, ts, JobSpec{Dataset: info.ID, Config: JobConfig{K: 3}})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if got := waitJob(t, ts, queued.ID, time.Second); got.Status != string(jobCancelled) {
		t.Fatalf("queued job status %q, want cancelled", got.Status)
	}
	if d := s.ob.queueDepth.Value(); d != 0 {
		t.Errorf("queue depth after cancel = %v, want 0", d)
	}

	close(stub.release)
	if got := waitJob(t, ts, blocker.ID, 5*time.Second); got.Status != string(jobDone) {
		t.Errorf("blocker finished %q, want done", got.Status)
	}
	// The cancelled job must never have consumed the worker.
	close(stub.started)
	for id := range stub.started {
		if id == queued.ID {
			t.Error("cancelled-while-queued job reached a worker")
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 4, Metrics: obs.NewRegistry()})
	stub := newBlockingStub(s, 8)
	info, _ := registerCSV(t, ts, testCSV(12), "err=err")

	j, _, _ := postJob(t, ts, JobSpec{Dataset: info.ID})
	<-stub.started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()

	if got := waitJob(t, ts, j.ID, 5*time.Second); got.Status != string(jobCancelled) {
		t.Fatalf("running job status %q, want cancelled", got.Status)
	}
	if v := s.ob.cancelled.Value(); v != 1 {
		t.Errorf("sl_server_jobs_cancelled_total = %d, want 1", v)
	}

	// The freed slot must accept the next job.
	next, code, _ := postJob(t, ts, JobSpec{Dataset: info.ID, Config: JobConfig{K: 3}})
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submission: status %d", code)
	}
	<-stub.started
	close(stub.release)
	if got := waitJob(t, ts, next.ID, 5*time.Second); got.Status != string(jobDone) {
		t.Errorf("post-cancel job finished %q, want done", got.Status)
	}
}

func TestJobTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 4})
	newBlockingStub(s, 8) // never released: only the deadline can end the job
	info, _ := registerCSV(t, ts, testCSV(12), "err=err")

	j, code, _ := postJob(t, ts, JobSpec{Dataset: info.ID, TimeoutMS: 30})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	got := waitJob(t, ts, j.ID, 5*time.Second)
	if got.Status != string(jobFailed) {
		t.Fatalf("timed-out job status %q, want failed", got.Status)
	}
	if !strings.Contains(got.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", got.Error)
	}
}

func TestShutdownRejectsNewJobs(t *testing.T) {
	s, err := New(Config{Pool: 1, QueueDepth: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	info, _ := registerCSV(t, ts, testCSV(12), "err=err")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, code, _ := postJob(t, ts, JobSpec{Dataset: info.ID}); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submission: status %d, want 503", code)
	}
}

func TestJobListOmitsResults(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 4})
	stub := newBlockingStub(s, 8)
	close(stub.release) // jobs complete immediately
	info, _ := registerCSV(t, ts, testCSV(12), "err=err")
	j, _, _ := postJob(t, ts, JobSpec{Dataset: info.ID})
	waitJob(t, ts, j.ID, 5*time.Second)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var list []JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if len(list) != 1 {
		t.Fatalf("list has %d jobs, want 1", len(list))
	}
	if list[0].Result != nil {
		t.Error("list view carries a full result")
	}
	if full := getJob(t, ts, j.ID); full.Result == nil {
		t.Error("single-job view misses the result")
	}
}
