package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sliceline/internal/core"
)

func newShutdownCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 15*time.Second)
}

// appendCSV renders one append batch: rows cycle through the planted-slice
// pattern of testCSV, offset so batches differ, with an optional extra row
// carrying a brand-new dev value (domain growth).
func appendBatchCSV(offset, rows int, growDev string) string {
	var b strings.Builder
	b.WriteString("dev,os,region,err\n")
	for i := offset; i < offset+rows; i++ {
		dev := fmt.Sprintf("d%d", i%4)
		os := fmt.Sprintf("o%d", i%3)
		region := fmt.Sprintf("r%d", i%2)
		e := 0.1
		if i%4 == 0 && i%3 == 0 {
			e = 1.0
		}
		fmt.Fprintf(&b, "%s,%s,%s,%g\n", dev, os, region, e)
	}
	if growDev != "" {
		fmt.Fprintf(&b, "%s,o0,r0,0.9\n", growDev)
	}
	return b.String()
}

func postAppend(t *testing.T, ts *httptest.Server, id, csv string) (AppendInfo, int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/rows", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatalf("POST rows: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var info AppendInfo
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &info); err != nil {
			t.Fatalf("decoding append info: %v (%s)", err, raw)
		}
	}
	return info, resp.StatusCode, string(raw)
}

// decodeEnvelope asserts a response body is the JSON error envelope and
// returns its code.
func decodeEnvelope(t *testing.T, body string) string {
	t.Helper()
	var env apiError
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("response is not the error envelope: %v (%s)", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope misses code or message: %s", body)
	}
	return env.Error.Code
}

// sseResult is one decoded monitor "result" SSE event.
type sseResult struct {
	ev  resultEvent
	end string // terminal status instead, when the stream finished
}

// streamResults opens a job's SSE stream and forwards every "result" event
// (and finally the terminal status) on the returned channel until the stream
// ends or the test finishes.
func streamResults(t *testing.T, ts *httptest.Server, id string) <-chan sseResult {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	out := make(chan sseResult, 64)
	go func() {
		defer close(out)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data := strings.TrimPrefix(line, "data: ")
				switch event {
				case "result":
					var ev resultEvent
					if err := json.Unmarshal([]byte(data), &ev); err == nil {
						out <- sseResult{ev: ev}
					}
				case "status":
					var te terminalEvent
					if err := json.Unmarshal([]byte(data), &te); err == nil {
						out <- sseResult{end: te.Status}
					}
					return
				}
			}
		}
	}()
	return out
}

func nextResult(t *testing.T, ch <-chan sseResult, wantGen int) resultEvent {
	t.Helper()
	select {
	case r, ok := <-ch:
		if !ok || r.end != "" {
			t.Fatalf("stream ended (%q) while waiting for generation %d", r.end, wantGen)
		}
		if r.ev.Generation != wantGen {
			t.Fatalf("result event for generation %d, want %d", r.ev.Generation, wantGen)
		}
		return r.ev
	case <-time.After(30 * time.Second):
		t.Fatalf("no result event for generation %d", wantGen)
	}
	return resultEvent{}
}

// TestStreamingMonitorEndToEnd is the streaming tentpole test: a resident
// monitor job must re-emit the maintained top-K after every append, and each
// emitted result must be bit-identical to a from-scratch run over the
// accumulated encoding of that generation — including appends that grow a
// feature domain.
func TestStreamingMonitorEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 2, QueueDepth: 8})
	info, code := registerCSV(t, ts, testCSV(24), "name=stream&err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	if !info.Appendable || info.Generation != 0 {
		t.Fatalf("streaming registration: appendable=%v generation=%d", info.Appendable, info.Generation)
	}

	spec := fmt.Sprintf(`{"spec_version":1,"dataset":%q,"mode":"monitor","config":{"k":4,"sigma":2}}`, info.ID)
	jinfo, code, raw := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit monitor: status %d (%s)", code, raw)
	}
	if jinfo.Status != string(jobRunning) || jinfo.Mode != ModeMonitor {
		t.Fatalf("monitor info: status=%q mode=%q", jinfo.Status, jinfo.Mode)
	}

	entry, ok := s.reg.get(info.ID)
	if !ok {
		t.Fatal("registered dataset not in registry")
	}
	refCfg := core.Config{K: 4, Sigma: 2}
	reference := func(snap dsSnapshot) string {
		res, err := core.Run(context.Background(), snap.Enc, snap.DS.Features, snap.ErrVec, nil, refCfg)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal reference: %v", err)
		}
		return canonicalResult(t, js)
	}

	results := streamResults(t, ts, jinfo.ID)
	ev := nextResult(t, results, 0)
	if got, want := canonicalResult(t, ev.Result), reference(entry.snapshot()); got != want {
		t.Fatalf("generation 0 monitor result differs from reference run:\n got %s\nwant %s", got, want)
	}

	rows := 24
	for gen := 1; gen <= 5; gen++ {
		grow := ""
		if gen == 3 {
			grow = "d9" // new dev value: domain growth mid-stream
		}
		batch := appendBatchCSV(24+gen*7, 6, grow)
		ainfo, code, raw := postAppend(t, ts, info.ID, batch)
		if code != http.StatusOK {
			t.Fatalf("append %d: status %d (%s)", gen, code, raw)
		}
		wantNew := 6
		if grow != "" {
			wantNew = 7
		}
		rows += wantNew
		if ainfo.Generation != gen || ainfo.NewRows != wantNew || ainfo.Rows != rows {
			t.Fatalf("append %d info: %+v (want gen=%d new=%d rows=%d)", gen, ainfo, gen, wantNew, rows)
		}
		if grow != "" && len(ainfo.Grown) == 0 {
			t.Fatalf("append %d grew the dev domain but Grown is empty", gen)
		}
		snap := entry.snapshot() // the test appends sequentially, so this is generation gen
		if snap.Gen != gen {
			t.Fatalf("snapshot generation %d, want %d", snap.Gen, gen)
		}
		ev := nextResult(t, results, gen)
		if ev.Rows != rows {
			t.Fatalf("generation %d result covers %d rows, want %d", gen, ev.Rows, rows)
		}
		if got, want := canonicalResult(t, ev.Result), reference(snap); got != want {
			t.Fatalf("generation %d monitor result differs from reference run:\n got %s\nwant %s", gen, got, want)
		}
		// The polled job view must carry the same refreshed result.
		ji := getJob(t, ts, jinfo.ID)
		if ji.Status != string(jobRunning) || ji.Generation != gen {
			t.Fatalf("generation %d job view: status=%q generation=%d", gen, ji.Status, ji.Generation)
		}
		if canonicalResult(t, ji.Result) != canonicalResult(t, ev.Result) {
			t.Fatalf("generation %d: GET /v1/jobs result differs from SSE result", gen)
		}
	}

	// Dataset info reflects the advanced generation and a moved signature.
	dresp, err := http.Get(ts.URL + "/v1/datasets/" + info.ID)
	if err != nil {
		t.Fatalf("GET dataset: %v", err)
	}
	var dinfo DatasetInfo
	if err := json.NewDecoder(dresp.Body).Decode(&dinfo); err != nil {
		t.Fatalf("decoding dataset info: %v", err)
	}
	dresp.Body.Close()
	if dinfo.Generation != 5 || dinfo.Signature == info.Signature || dinfo.ID != info.ID {
		t.Fatalf("dataset after appends: gen=%d sig=%s (base sig %s, id must stay %s)", dinfo.Generation, dinfo.Signature, info.Signature, info.ID)
	}

	// Cancel ends the resident monitor and terminates the stream.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jinfo.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case r, ok := <-results:
			if !ok {
				t.Fatal("stream closed without a terminal status event")
			}
			if r.end != "" {
				if r.end != string(jobCancelled) {
					t.Fatalf("monitor terminal status %q, want cancelled", r.end)
				}
				return
			}
		case <-deadline:
			t.Fatal("stream did not terminate after cancel")
		}
	}
}

// TestBatchJobSnapshotIsolation: a batch job submitted at generation g must
// answer for generation g even if rows are appended while it is queued, and a
// resubmission after an append must NOT be answered from the older
// generation's cache entry.
func TestBatchJobSnapshotIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2, QueueDepth: 8})
	info, _ := registerCSV(t, ts, testCSV(24), "name=iso&err=err")

	spec := fmt.Sprintf(`{"dataset":%q,"config":{"k":4,"sigma":2}}`, info.ID)
	j1, _, _ := postJob(t, ts, spec)
	done1 := waitJob(t, ts, j1.ID, 30*time.Second)
	if done1.Status != string(jobDone) {
		t.Fatalf("job 1: %q (%s)", done1.Status, done1.Error)
	}

	if _, code, raw := postAppend(t, ts, info.ID, appendBatchCSV(60, 8, "d7")); code != http.StatusOK {
		t.Fatalf("append: status %d (%s)", code, raw)
	}

	// Same spec, new generation: must be a fresh run, not a cache hit.
	j2, _, _ := postJob(t, ts, spec)
	done2 := waitJob(t, ts, j2.ID, 30*time.Second)
	if done2.Status != string(jobDone) {
		t.Fatalf("job 2: %q (%s)", done2.Status, done2.Error)
	}
	if done2.Cached {
		t.Fatal("post-append resubmission was served from the pre-append cache entry")
	}
	if canonicalResult(t, done1.Result) == canonicalResult(t, done2.Result) {
		t.Fatal("results across generations are identical; the appended rows were not evaluated")
	}

	// Identical resubmission at the same generation still hits the cache.
	j3, _, _ := postJob(t, ts, spec)
	done3 := waitJob(t, ts, j3.ID, 30*time.Second)
	if !done3.Cached {
		t.Fatal("same-generation resubmission missed the cache")
	}
}

// TestWindowedJob: a windowed run must equal a weighted reference run with
// rows outside the window zero-weighted — and differ from the full run when
// the recent rows carry a different worst slice.
func TestWindowedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 2, QueueDepth: 8})
	// Base: benign rows (planted slice errors included). Appended batch:
	// every d1&o1 row is maximally wrong, so the windowed worst slice moves.
	info, _ := registerCSV(t, ts, testCSV(24), "name=win&err=err")
	var b strings.Builder
	b.WriteString("dev,os,region,err\n")
	for i := 0; i < 12; i++ {
		e := 0.05
		if i%2 == 0 {
			b.WriteString("d1,o1,r0,1.0\n")
			continue
		}
		fmt.Fprintf(&b, "d%d,o%d,r%d,%g\n", i%4, i%3, i%2, e)
	}
	if _, code, raw := postAppend(t, ts, info.ID, b.String()); code != http.StatusOK {
		t.Fatalf("append: status %d (%s)", code, raw)
	}

	spec := fmt.Sprintf(`{"spec_version":1,"dataset":%q,"window":{"last_rows":12},"config":{"k":4,"sigma":2}}`, info.ID)
	j, code, raw := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit windowed: status %d (%s)", code, raw)
	}
	done := waitJob(t, ts, j.ID, 30*time.Second)
	if done.Status != string(jobDone) {
		t.Fatalf("windowed job: %q (%s)", done.Status, done.Error)
	}
	if done.Cached {
		t.Fatal("windowed job was served from the result cache")
	}

	entry, _ := s.reg.get(info.ID)
	snap := entry.snapshot()
	n := snap.DS.NumRows()
	w := make([]float64, n)
	for i := n - 12; i < n; i++ {
		w[i] = 1
	}
	cfg := core.Config{K: 4, Sigma: 2}.WithDefaults(n)
	ref, err := core.Run(context.Background(), snap.Enc, snap.DS.Features, snap.ErrVec, w, cfg)
	if err != nil {
		t.Fatalf("weighted reference: %v", err)
	}
	refJS, _ := json.Marshal(ref)
	if canonicalResult(t, done.Result) != canonicalResult(t, refJS) {
		t.Fatalf("windowed result differs from zero-weighted reference:\n got %s\nwant %s",
			canonicalResult(t, done.Result), canonicalResult(t, refJS))
	}

	// The full (unwindowed) run sees 24 benign base rows too and must differ.
	full, _, _ := postJob(t, ts, fmt.Sprintf(`{"dataset":%q,"config":{"k":4,"sigma":2}}`, info.ID))
	fullDone := waitJob(t, ts, full.ID, 30*time.Second)
	if canonicalResult(t, fullDone.Result) == canonicalResult(t, done.Result) {
		t.Fatal("windowed and full results are identical; the window had no effect")
	}
}

// TestWindowWeights exercises the row/time window resolution directly,
// including the empty-window error that is hard to reach end to end.
func TestWindowWeights(t *testing.T) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	entry, err := buildDataset(strings.NewReader(testCSV(10)), registerOptions{Err: "err", Name: "w"})
	if err != nil {
		t.Fatalf("buildDataset: %v", err)
	}
	snap := entry.snapshot()
	// Fabricate a 3-generation history: 6 base rows at t0, then 2 rows at
	// t0+1h, then 2 rows at t0+2h (row counts only matter for bounds).
	snap.GenEnd = []int{6, 8, 10}
	snap.GenAt = []time.Time{base, base.Add(time.Hour), base.Add(2 * time.Hour)}
	snap.Gen = 2
	now := base.Add(2*time.Hour + time.Minute)

	sum := func(w []float64) (lo int) {
		lo = len(w)
		for i, v := range w {
			if v != 0 {
				if i < lo {
					lo = i
				}
				if v != 1 {
					t.Fatalf("weight %v at row %d, want 0 or 1", v, i)
				}
			}
		}
		return lo
	}

	w, err := windowWeights(snap, &WindowSpec{LastRows: 4}, now)
	if err != nil || sum(w) != 6 {
		t.Fatalf("last_rows=4: lo=%d err=%v, want lo=6", sum(w), err)
	}
	// 90 minutes back: generations at +1h and +2h qualify, base does not.
	w, err = windowWeights(snap, &WindowSpec{LastMS: int64(90 * time.Minute / time.Millisecond)}, now)
	if err != nil || sum(w) != 6 {
		t.Fatalf("last_ms=90m: lo=%d err=%v, want lo=6", sum(w), err)
	}
	// Intersection: last 6 rows AND last 50 minutes → only the final batch
	// (the +1h batch is 61 minutes old at now).
	w, err = windowWeights(snap, &WindowSpec{LastRows: 6, LastMS: int64(50 * time.Minute / time.Millisecond)}, now)
	if err != nil || sum(w) != 8 {
		t.Fatalf("intersection: lo=%d err=%v, want lo=8", sum(w), err)
	}
	// A window older than every batch selects nothing.
	if _, err = windowWeights(snap, &WindowSpec{LastMS: 1}, now.Add(24*time.Hour)); err == nil {
		t.Fatal("empty window did not error")
	}
}

// TestNonFiniteErrorValuesRejected: error values obey core's input rule
// (finite and >= 0) at registration and on append, so a NaN or infinite err
// cell is a 400 with the error envelope rather than a dataset whose jobs
// report NaN scores.
func TestNonFiniteErrorValuesRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 2})

	js, err := json.Marshal(map[string]any{
		"csv": strings.Replace(testCSV(12), "0.1\n", "NaN\n", 1), "err": "err", "name": "nan",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatalf("POST /v1/datasets: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || decodeEnvelope(t, string(raw)) != codeBadRequest {
		t.Fatalf("register with a NaN err cell: %d %s", resp.StatusCode, raw)
	}

	info, code := registerCSV(t, ts, testCSV(12), "name=finite&err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	if _, st, body := postAppend(t, ts, info.ID, "dev,os,region,err\nd0,o0,r0,0.5\nd1,o1,r1,Inf\n"); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeBadRequest {
		t.Fatalf("append with an Inf err cell: %d %s", st, body)
	}
	if _, st, body := postAppend(t, ts, info.ID, "dev,os,region,err\nd0,o0,r0,0.5\n"); st != http.StatusOK {
		t.Fatalf("append after the rejected batch: %d %s", st, body)
	}
}

// TestErrorEnvelope pins the JSON error envelope across the 404 and
// validation surfaces.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 2})

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	if st, body := get("/v1/datasets/ds_missing"); st != http.StatusNotFound || decodeEnvelope(t, body) != codeNotFound {
		t.Fatalf("GET missing dataset: %d %s", st, body)
	}
	if st, body := get("/v1/jobs/job-999"); st != http.StatusNotFound || decodeEnvelope(t, body) != codeNotFound {
		t.Fatalf("GET missing job: %d %s", st, body)
	}
	if st, body := get("/v1/jobs/job-999/events"); st != http.StatusNotFound || decodeEnvelope(t, body) != codeNotFound {
		t.Fatalf("GET missing job events: %d %s", st, body)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || decodeEnvelope(t, string(raw)) != codeNotFound {
		t.Fatalf("DELETE missing job: %d %s", resp.StatusCode, raw)
	}

	if _, st, body := postAppend(t, ts, "ds_missing", "dev,os,region,err\nd0,o0,r0,0.5\n"); st != http.StatusNotFound || decodeEnvelope(t, body) != codeNotFound {
		t.Fatalf("append to missing dataset: %d %s", st, body)
	}

	// Train-mode datasets are not appendable.
	var b strings.Builder
	b.WriteString("dev,os,label\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "d%d,o%d,%d\n", i%3, i%2, i%2)
	}
	tinfo, code := registerCSV(t, ts, b.String(), "name=train&label=label&task=class")
	if code != http.StatusCreated {
		t.Fatalf("train register: %d", code)
	}
	if tinfo.Appendable {
		t.Fatal("train-mode dataset reports appendable")
	}
	if _, st, body := postAppend(t, ts, tinfo.ID, "dev,os,err\nd0,o0,0.5\n"); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeNotAppendable {
		t.Fatalf("append to train dataset: %d %s", st, body)
	}

	// Bad job specs carry the bad_job_spec code.
	if _, st, body := postJob(t, ts, `{"dataset":"x","mode":"monitor"}`); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeBadJobSpec {
		t.Fatalf("monitor without spec_version: %d %s", st, body)
	}
	if _, st, body := postJob(t, ts, `{"dataset":"x","spec_version":3}`); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeBadJobSpec {
		t.Fatalf("future spec_version: %d %s", st, body)
	}
	// New-mode validation failures also carry bad_job_spec.
	if _, st, body := postJob(t, ts, `{"dataset":"x","spec_version":2,"mode":"anytime"}`); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeBadJobSpec {
		t.Fatalf("anytime without budget: %d %s", st, body)
	}
	if _, st, body := postJob(t, ts, `{"dataset":"x","spec_version":2,"mode":"diff"}`); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeBadJobSpec {
		t.Fatalf("diff without baseline: %d %s", st, body)
	}
	if _, st, body := postJob(t, ts, `{"dataset":"x","spec_version":2,"mode":"windowed"}`); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeBadJobSpec {
		t.Fatalf("windowed without window: %d %s", st, body)
	}
	if _, st, body := postJob(t, ts, `{"dataset":"x","spec_version":2,"budget_ms":100}`); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeBadJobSpec {
		t.Fatalf("budget_ms outside anytime: %d %s", st, body)
	}
	if _, st, body := postJob(t, ts, `{"dataset":"x","spec_version":1,"window":{}}`); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeBadJobSpec {
		t.Fatalf("empty window: %d %s", st, body)
	}
	if _, st, body := postJob(t, ts, `{"dataset":"x","spec_version":1,"mode":"monitor","window":{"last_rows":5}}`); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeBadJobSpec {
		t.Fatalf("monitor+window: %d %s", st, body)
	}
	if _, st, body := postJob(t, ts, `{"dataset":"x","spec_version":1,"mode":"monitor","evaluator":"dist"}`); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeBadJobSpec {
		t.Fatalf("monitor+dist: %d %s", st, body)
	}
	if _, st, body := postJob(t, ts, `{"dataset":"x","window":{"last_rows":5}}`); st != http.StatusBadRequest || decodeEnvelope(t, body) != codeBadJobSpec {
		t.Fatalf("window without spec_version: %d %s", st, body)
	}
}

// TestRegisterBodyForms: the two supported registration body forms must land
// on the same content address, and the removed legacy query-param form must
// be rejected with the stable deprecated_form code.
func TestRegisterBodyForms(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 2})
	csv := testCSV(18)

	// Removed legacy query-param form: 400 with a stable error code.
	resp, err := http.Post(ts.URL+"/v1/datasets?name=legacy&err=err", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatalf("legacy register: %v", err)
	}
	raw0, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || decodeEnvelope(t, string(raw0)) != codeDeprecatedForm {
		t.Fatalf("legacy register: %d %s, want 400 %s", resp.StatusCode, raw0, codeDeprecatedForm)
	}

	// JSON body form.
	body, _ := json.Marshal(registerRequest{Name: "jsonform", Err: "err", CSV: csv})
	resp, err = http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("json register: %v", err)
	}
	var fromJSON DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&fromJSON); err != nil {
		t.Fatalf("decoding json info: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("json register: status %d, want 201", resp.StatusCode)
	}
	if fromJSON.Reused {
		t.Fatal("first registration reported reused")
	}

	// Multipart form.
	var mp bytes.Buffer
	mw := multipart.NewWriter(&mp)
	_ = mw.WriteField("name", "mpform")
	_ = mw.WriteField("err", "err")
	fw, _ := mw.CreateFormFile("csv", "data.csv")
	_, _ = fw.Write([]byte(csv))
	mw.Close()
	resp, err = http.Post(ts.URL+"/v1/datasets", mw.FormDataContentType(), &mp)
	if err != nil {
		t.Fatalf("multipart register: %v", err)
	}
	var fromMP DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&fromMP); err != nil {
		t.Fatalf("decoding multipart info: %v", err)
	}
	resp.Body.Close()
	if !fromMP.Reused || fromMP.ID != fromJSON.ID {
		t.Fatalf("multipart registration: reused=%v id=%s, want reuse of %s", fromMP.Reused, fromMP.ID, fromJSON.ID)
	}

	// Malformed JSON body → envelope.
	resp, err = http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(`{"csv":""}`))
	if err != nil {
		t.Fatalf("empty-csv register: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || decodeEnvelope(t, string(raw)) != codeBadRequest {
		t.Fatalf("empty-csv register: %d %s", resp.StatusCode, raw)
	}
}

// TestMonitorLimit: the resident-monitor cap rejects with 429/monitor_limit,
// and cancelling a monitor frees its slot.
func TestMonitorLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, QueueDepth: 2, MaxMonitors: 1})
	info, _ := registerCSV(t, ts, testCSV(24), "name=cap&err=err")
	spec := fmt.Sprintf(`{"spec_version":1,"dataset":%q,"mode":"monitor","config":{"k":3}}`, info.ID)

	j1, code, raw := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("monitor 1: %d (%s)", code, raw)
	}
	if _, code, raw := postJob(t, ts, spec); code != http.StatusTooManyRequests || decodeEnvelope(t, raw) != codeMonitorLimit {
		t.Fatalf("monitor 2 over cap: %d %s", code, raw)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j1.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatalf("DELETE monitor: %v", err)
	}
	waitJob(t, ts, j1.ID, 10*time.Second)
	// The slot frees when the resident goroutine exits; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, code, _ := postJob(t, ts, spec)
		if code == http.StatusAccepted {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("monitor slot never freed after cancel (last status %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamingJournalReplay: appended generations must survive a restart —
// the restored dataset reaches the same generation and signature, completed
// jobs re-serve, and a same-generation resubmission hits the restored cache.
func TestStreamingJournalReplay(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Pool: 1, QueueDepth: 4, JournalDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := newHTTPTestServer(t, s1)

	info, _ := registerCSV(t, ts1, testCSV(24), "name=jr&err=err")
	if _, code, raw := postAppend(t, ts1, info.ID, appendBatchCSV(31, 5, "")); code != http.StatusOK {
		t.Fatalf("append 1: %d (%s)", code, raw)
	}
	a2, code, raw := postAppend(t, ts1, info.ID, appendBatchCSV(77, 4, "d8"))
	if code != http.StatusOK {
		t.Fatalf("append 2: %d (%s)", code, raw)
	}
	spec := fmt.Sprintf(`{"dataset":%q,"config":{"k":4,"sigma":2}}`, info.ID)
	j1, _, _ := postJob(t, ts1, spec)
	done1 := waitJob(t, ts1, j1.ID, 30*time.Second)
	if done1.Status != string(jobDone) {
		t.Fatalf("pre-restart job: %q (%s)", done1.Status, done1.Error)
	}
	sctx, scancel := newShutdownCtx()
	defer scancel()
	if err := s1.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, err := New(Config{Pool: 1, QueueDepth: 4, JournalDir: dir})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer func() {
		ctx, cancel := newShutdownCtx()
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	ts2 := newHTTPTestServer(t, s2)

	resp, err := http.Get(ts2.URL + "/v1/datasets/" + info.ID)
	if err != nil {
		t.Fatalf("GET restored dataset: %v", err)
	}
	var dinfo DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&dinfo); err != nil {
		t.Fatalf("decoding restored dataset: %v", err)
	}
	resp.Body.Close()
	if dinfo.Generation != 2 || dinfo.Signature != a2.Signature || !dinfo.Appendable {
		t.Fatalf("restored dataset: gen=%d sig=%s appendable=%v, want gen=2 sig=%s",
			dinfo.Generation, dinfo.Signature, dinfo.Appendable, a2.Signature)
	}

	// The completed job re-serves with its result.
	restored := getJob(t, ts2, j1.ID)
	if restored.Status != string(jobDone) || canonicalResult(t, restored.Result) != canonicalResult(t, done1.Result) {
		t.Fatalf("restored job: status=%q, result mismatch", restored.Status)
	}

	// Same spec at the same (restored) generation: served from the cache.
	j2, _, _ := postJob(t, ts2, spec)
	done2 := waitJob(t, ts2, j2.ID, 30*time.Second)
	if !done2.Cached {
		t.Fatal("same-generation resubmission after restart missed the restored cache")
	}

	// Appending continues the generation sequence after restart.
	a3, code, raw := postAppend(t, ts2, info.ID, appendBatchCSV(5, 3, ""))
	if code != http.StatusOK || a3.Generation != 3 {
		t.Fatalf("post-restart append: %d gen=%d (%s)", code, a3.Generation, raw)
	}
}

// TestMonitorJournalRestart: a monitor whose server dies (no graceful drain)
// restarts as a fresh resident over the restored dataset.
func TestMonitorJournalRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Pool: 1, QueueDepth: 4, JournalDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := newHTTPTestServer(t, s1)
	info, _ := registerCSV(t, ts1, testCSV(24), "name=mr&err=err")
	spec := fmt.Sprintf(`{"spec_version":1,"dataset":%q,"mode":"monitor","config":{"k":3}}`, info.ID)
	j1, code, raw := postJob(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("monitor: %d (%s)", code, raw)
	}

	// Simulate a crash: bring up a second server over the same journal
	// WITHOUT draining the first (a graceful drain would journal the
	// monitor as cancelled).
	s2, err := New(Config{Pool: 1, QueueDepth: 4, JournalDir: dir})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	ts2 := newHTTPTestServer(t, s2)
	defer func() {
		ctx, cancel := newShutdownCtx()
		defer cancel()
		_ = s2.Shutdown(ctx)
		ctx2, cancel2 := newShutdownCtx()
		defer cancel2()
		_ = s1.Shutdown(ctx2)
	}()

	ji := getJob(t, ts2, j1.ID)
	if ji.Status != string(jobRunning) || ji.Mode != ModeMonitor {
		t.Fatalf("restored monitor: status=%q mode=%q, want running monitor", ji.Status, ji.Mode)
	}
	// It must react to appends on the restored dataset.
	results := streamResults(t, ts2, j1.ID)
	nextResult(t, results, 0)
	if _, code, raw := postAppend(t, ts2, info.ID, appendBatchCSV(9, 4, "")); code != http.StatusOK {
		t.Fatalf("append on restored server: %d (%s)", code, raw)
	}
	nextResult(t, results, 1)
}
