package server

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/obs"
)

// TestJournalRestartReservesCompletedJobs runs a job to completion on a
// journaled server, restarts from the same directory, and verifies the
// dataset, the job record, and the primed result cache all survive.
func TestJournalRestartReservesCompletedJobs(t *testing.T) {
	dir := t.TempDir()
	csv := testCSV(40)
	spec := JobConfig{K: 4, Sigma: 3}

	_, ts := newTestServer(t, Config{JournalDir: dir})
	info, code := registerCSV(t, ts, csv, "err=err&name=journaled")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	j, code, body := postJob(t, ts, JobSpec{Dataset: info.ID, Config: spec})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", code, body)
	}
	done := waitJob(t, ts, j.ID, 30*time.Second)
	if done.Status != string(jobDone) {
		t.Fatalf("job finished %q: %s", done.Status, done.Error)
	}
	// (newTestServer's cleanup shuts this instance down at test end; the
	// journal files are already on disk, so the restart below is valid.)

	// Restart from the same journal.
	reg := obs.NewRegistry()
	s2, ts2 := newTestServer(t, Config{JournalDir: dir, Metrics: reg})
	if s2.reg.len() != 1 {
		t.Fatalf("restarted registry holds %d datasets, want 1", s2.reg.len())
	}
	restored := getJob(t, ts2, j.ID)
	if restored.Status != string(jobDone) {
		t.Fatalf("restored job status %q, want done", restored.Status)
	}
	if canonicalResult(t, restored.Result) != canonicalResult(t, done.Result) {
		t.Error("restored result differs from the original")
	}

	// The restored result must have primed the cache: an identical
	// submission is served without a worker.
	rejob, code, _ := postJob(t, ts2, JobSpec{Dataset: info.ID, Config: spec})
	if code != http.StatusAccepted || !rejob.Cached || rejob.Status != string(jobDone) {
		t.Errorf("post-restart resubmission: status=%d cached=%v state=%q, want 202 cached done",
			code, rejob.Cached, rejob.Status)
	}
	if v := reg.Counter("sl_server_cache_hits_total", "").Value(); v != 1 {
		t.Errorf("sl_server_cache_hits_total = %d, want 1", v)
	}

	// SSE replay still reports every lattice level after the restart.
	levels, status := readSSE(t, ts2, j.ID)
	if levels == 0 || status != string(jobDone) {
		t.Errorf("restored SSE: %d levels, status %q", levels, status)
	}
}

// TestJournalRestartResumesUnfinishedJobs simulates a crash mid-job: a job
// record journaled in the running state (with no checkpoint yet) must be
// re-enqueued on restart and run to completion.
func TestJournalRestartResumesUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	csv := testCSV(40)

	// First life: only a dataset registration.
	_, ts := newTestServer(t, Config{JournalDir: dir})
	info, code := registerCSV(t, ts, csv, "err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}

	// Forge the crash artifact: a job that died while running.
	rec := &journalJob{
		Version: journalVersion,
		ID:      "job-7",
		Spec:    JobSpec{Dataset: info.ID, Config: JobConfig{K: 4, Sigma: 3}},
		Status:  string(jobRunning),
	}
	if err := writeGob(filepath.Join(dir, rec.ID+journalJobSuffix), rec); err != nil {
		t.Fatalf("forging journal record: %v", err)
	}

	reg := obs.NewRegistry()
	_, ts2 := newTestServer(t, Config{JournalDir: dir, Metrics: reg})
	got := waitJob(t, ts2, "job-7", 30*time.Second)
	if got.Status != string(jobDone) {
		t.Fatalf("resumed job finished %q: %s", got.Status, got.Error)
	}
	if v := reg.Counter("sl_server_jobs_resumed_total", "").Value(); v != 1 {
		t.Errorf("sl_server_jobs_resumed_total = %d, want 1", v)
	}

	// Fresh submissions continue the ID sequence past the restored record.
	next, code, _ := postJob(t, ts2, JobSpec{Dataset: info.ID, Config: JobConfig{K: 5, Sigma: 3}})
	if code != http.StatusAccepted {
		t.Fatalf("post-restart submission: status %d", code)
	}
	if seq := jobSeq(next.ID); seq <= 7 {
		t.Errorf("post-restart job id %s does not continue the sequence", next.ID)
	}
}

// TestJournalRestartDiscardsRefusedCheckpoint: a journaled running job whose
// checkpoint core refuses — torn mid-write, or written for another
// configuration — drops the file and runs from level 1 instead of failing,
// finishing with the result of a fresh job and counting
// sl_server_checkpoints_discarded_total once each.
func TestJournalRestartDiscardsRefusedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Config: JobConfig{K: 4, Sigma: 3}}
	s, ts := newTestServer(t, Config{JournalDir: dir})
	info, code := registerCSV(t, ts, testCSV(40), "err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	spec.Dataset = info.ID
	j, code, body := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", code, body)
	}
	fresh := waitJob(t, ts, j.ID, 30*time.Second)
	if fresh.Status != string(jobDone) {
		t.Fatalf("fresh job finished %q: %s", fresh.Status, fresh.Error)
	}

	// A checkpoint of the same data under another configuration: it decodes
	// and carries levels, but its signature is not the job's.
	d, _ := s.reg.get(info.ID)
	snap := d.snapshot()
	foreign := filepath.Join(t.TempDir(), "foreign.ck")
	cfg := core.Config{K: 4, Sigma: 3, Alpha: 0.5, CheckpointPath: foreign}
	if _, err := core.Run(context.Background(), snap.Enc, snap.DS.Features, snap.ErrVec, nil, cfg); err != nil {
		t.Fatal(err)
	}
	ck, err := os.ReadFile(foreign)
	if err != nil {
		t.Fatal(err)
	}
	for id, data := range map[string][]byte{"job-7": ck[:len(ck)/2], "job-8": ck} {
		rec := &journalJob{Version: journalVersion, ID: id, Spec: spec, Status: string(jobRunning)}
		if err := writeGob(filepath.Join(dir, id+journalJobSuffix), rec); err != nil {
			t.Fatalf("forging journal record: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".ck"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	_, ts2 := newTestServer(t, Config{JournalDir: dir, Metrics: reg})
	for id, kind := range map[string]string{"job-7": "torn", "job-8": "foreign-signature"} {
		got := waitJob(t, ts2, id, 30*time.Second)
		if got.Status != string(jobDone) {
			t.Fatalf("job with a %s checkpoint finished %q: %s", kind, got.Status, got.Error)
		}
		if canonicalResult(t, got.Result) != canonicalResult(t, fresh.Result) {
			t.Errorf("job with a %s checkpoint: result differs from a fresh run's", kind)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".ck")); !os.IsNotExist(err) {
			t.Errorf("job with a %s checkpoint: checkpoint still on disk (stat: %v)", kind, err)
		}
	}
	if v := reg.Counter("sl_server_checkpoints_discarded_total", "").Value(); v != 2 {
		t.Errorf("sl_server_checkpoints_discarded_total = %d, want 2", v)
	}
}

// TestJournalRestoresLegacyJobConfig: a job record journaled before the
// dense and bitset kernel knobs, the block size and priority enumeration
// were retired still restores and completes — gob drops the fields the
// current JobConfig no longer has.
func TestJournalRestoresLegacyJobConfig(t *testing.T) {
	// The JobSpec shape of those records, with the four retired fields.
	type legacyJobConfig struct {
		K, Sigma              int
		Alpha                 float64
		MaxLevel, BlockSize   int
		MaxCandidatesPerLevel int
		PriorityEnumeration   bool
		DenseEval             bool
		Bitset                string
		Significance          float64
	}
	type legacyJobSpec struct {
		SpecVersion int
		Dataset     string
		Config      legacyJobConfig
		Evaluator   string
	}
	type legacyJournalJob struct {
		Version int
		ID      string
		Spec    legacyJobSpec
		Status  string
	}

	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JournalDir: dir})
	info, code := registerCSV(t, ts, testCSV(40), "err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	rec := &legacyJournalJob{
		Version: journalVersion,
		ID:      "job-3",
		Spec: legacyJobSpec{
			Dataset: info.ID,
			Config:  legacyJobConfig{K: 4, Sigma: 3, BlockSize: 8, PriorityEnumeration: true, DenseEval: true, Bitset: "on"},
		},
		Status: string(jobRunning),
	}
	if err := writeGob(filepath.Join(dir, rec.ID+journalJobSuffix), rec); err != nil {
		t.Fatalf("forging legacy journal record: %v", err)
	}

	_, ts2 := newTestServer(t, Config{JournalDir: dir})
	got := waitJob(t, ts2, rec.ID, 30*time.Second)
	if got.Status != string(jobDone) {
		t.Fatalf("legacy job finished %q: %s", got.Status, got.Error)
	}
	fresh, code, body := postJob(t, ts2, JobSpec{Dataset: info.ID, Config: JobConfig{K: 4, Sigma: 3}})
	if code != http.StatusAccepted {
		t.Fatalf("fresh submission: status %d (%s)", code, body)
	}
	fresh = waitJob(t, ts2, fresh.ID, 30*time.Second)
	if canonicalResult(t, got.Result) != canonicalResult(t, fresh.Result) {
		t.Error("legacy job's result differs from the same config submitted today")
	}
}

// TestJournalRestartFailsJobWithMissingDataset covers the one restore path
// that cannot make progress: a journaled job whose dataset file is gone.
func TestJournalRestartFailsJobWithMissingDataset(t *testing.T) {
	dir := t.TempDir()
	rec := &journalJob{
		Version: journalVersion,
		ID:      "job-1",
		Spec:    JobSpec{Dataset: "ds_feedfacecafebeef", Config: JobConfig{K: 4}},
		Status:  string(jobQueued),
	}
	if err := writeGob(filepath.Join(dir, rec.ID+journalJobSuffix), rec); err != nil {
		t.Fatalf("forging journal record: %v", err)
	}
	_, ts := newTestServer(t, Config{JournalDir: dir})
	got := waitJob(t, ts, "job-1", 5*time.Second)
	if got.Status != string(jobFailed) {
		t.Errorf("orphaned job status %q, want failed", got.Status)
	}
}

// TestJournalRestartFailsJobWhoseDatasetFileIsGone: an unfinished job whose
// dataset file was removed from the journal directory restarts failed, and
// its error names the missing dataset.
func TestJournalRestartFailsJobWhoseDatasetFileIsGone(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JournalDir: dir})
	info, code := registerCSV(t, ts, testCSV(40), "err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	rec := &journalJob{
		Version: journalVersion,
		ID:      "job-4",
		Spec:    JobSpec{Dataset: info.ID, Config: JobConfig{K: 4, Sigma: 3}},
		Status:  string(jobRunning),
	}
	if err := writeGob(filepath.Join(dir, rec.ID+journalJobSuffix), rec); err != nil {
		t.Fatalf("forging journal record: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, info.ID+journalDatasetSuffix)); err != nil {
		t.Fatalf("removing the dataset file: %v", err)
	}

	_, ts2 := newTestServer(t, Config{JournalDir: dir})
	got := waitJob(t, ts2, rec.ID, 5*time.Second)
	if got.Status != string(jobFailed) || !strings.Contains(got.Error, info.ID) {
		t.Fatalf("restored job: status %q, error %q; want failed naming %s", got.Status, got.Error, info.ID)
	}
}

// TestJournalRestartReservesDiffJobWithoutBaseline: a completed diff job
// whose baseline file was removed still re-serves its stored result after a
// restart, but cannot rebuild its cache key, so it does not seed the cache.
func TestJournalRestartReservesDiffJobWithoutBaseline(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JournalDir: dir})
	base, code := registerCSV(t, ts, modeCSV(60, func(i int) float64 { return float64(i%4) / 4 }), "err=err&name=base")
	if code != http.StatusCreated {
		t.Fatalf("register base: status %d", code)
	}
	cur, code := registerCSV(t, ts, modeCSV(60, func(i int) float64 { return float64(i%3) / 3 }), "err=err&name=new")
	if code != http.StatusCreated {
		t.Fatalf("register new: status %d", code)
	}
	spec := JobSpec{SpecVersion: 2, Dataset: cur.ID, Config: JobConfig{K: 4, Sigma: 2}, Mode: ModeDiff, Baseline: base.ID}
	j, code, body := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("diff submit: status %d (%s)", code, body)
	}
	done := waitJob(t, ts, j.ID, 30*time.Second)
	if done.Status != string(jobDone) {
		t.Fatalf("diff job finished %q: %s", done.Status, done.Error)
	}
	if err := os.Remove(filepath.Join(dir, base.ID+journalDatasetSuffix)); err != nil {
		t.Fatalf("removing the baseline file: %v", err)
	}

	s2, ts2 := newTestServer(t, Config{JournalDir: dir})
	restored := getJob(t, ts2, j.ID)
	if restored.Status != string(jobDone) {
		t.Fatalf("restored diff job status %q, want done", restored.Status)
	}
	if canonicalResult(t, restored.Result) != canonicalResult(t, done.Result) {
		t.Error("restored diff result differs from the original")
	}
	if n := s2.cache.len(); n != 0 {
		t.Errorf("restored diff job without its baseline seeded %d cache entries, want 0", n)
	}
}

// TestJournalCheckpointWrittenAndDropped verifies the per-job enumeration
// checkpoint path is wired through: it must not outlive a completed job.
func TestJournalCheckpointWrittenAndDropped(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JournalDir: dir})
	info, _ := registerCSV(t, ts, testCSV(40), "err=err")
	j, _, _ := postJob(t, ts, JobSpec{Dataset: info.ID, Config: JobConfig{K: 4, Sigma: 3}})
	done := waitJob(t, ts, j.ID, 30*time.Second)
	if done.Status != string(jobDone) {
		t.Fatalf("job finished %q", done.Status)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.ck"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("checkpoint files survive job completion: %v", matches)
	}
}

// TestShutdownDeadlineCancelsJobs covers the forced-drain path: when the
// Shutdown context expires, running jobs are cancelled rather than awaited.
func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	s, err := New(Config{Pool: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	stub := newBlockingStub(s, 8)
	defer close(stub.release)
	ts := newHTTPTestServer(t, s)
	info, _ := registerCSV(t, ts, testCSV(12), "err=err")
	j, _, _ := postJob(t, ts, JobSpec{Dataset: info.ID})
	<-stub.started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if got := getJob(t, ts, j.ID); got.Status != string(jobCancelled) {
		t.Errorf("in-flight job after forced drain: %q, want cancelled", got.Status)
	}
}
