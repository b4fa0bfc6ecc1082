package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sliceline/internal/core"
	"sliceline/internal/datagen"
	"sliceline/internal/frame"
	"sliceline/internal/obs"
)

// watchFreed sets a finalizer on enc and returns a probe that collects
// garbage until the finalizer has run, reporting false if it never does.
// The caller must hold no reference to enc itself.
func watchFreed(enc *frame.Encoding) func() bool {
	freed := make(chan struct{})
	runtime.SetFinalizer(enc, func(*frame.Encoding) { close(freed) })
	return func() bool {
		for i := 0; i < 20; i++ {
			runtime.GC()
			select {
			case <-freed:
				return true
			case <-time.After(10 * time.Millisecond):
			}
		}
		return false
	}
}

// watchCurrent watches the current generation's encoding of dataset id.
func watchCurrent(t *testing.T, s *Server, id string) func() bool {
	t.Helper()
	d, ok := s.reg.get(id)
	if !ok {
		t.Fatalf("dataset %s not registered", id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return watchFreed(d.Enc)
}

// TestFinishedJobReleasesGeneration: a terminal job holds no dataset data,
// so once the dataset has moved on, a generation that only finished jobs
// ran on is collected. Each terminal path gets its own dataset: done,
// failed, cancelled while queued, cache hit, a diff job's baseline, and a
// terminal record restored from the journal.
func TestFinishedJobReleasesGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Pool: 1, QueueDepth: 8, JournalDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := newHTTPTestServer(t, s)
	// K 5 fails and K 6 holds the only worker until gate closes; every
	// other job runs for real.
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s.runJob = func(ctx context.Context, j *job) (*core.Result, error) {
		switch j.spec.Config.K {
		case 5:
			return nil, errors.New("planted failure")
		case 6:
			started <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return s.runJobReal(ctx, j)
	}

	register := func(rows int, errScale string) string {
		t.Helper()
		csv := testCSV(rows)
		if errScale != "" {
			csv = strings.ReplaceAll(csv, ",0.1\n", ","+errScale+"\n")
		}
		info, code := registerCSV(t, ts, csv, "err=err")
		if code != http.StatusCreated {
			t.Fatalf("register %d rows: status %d", rows, code)
		}
		return info.ID
	}
	run := func(id string, k int, wantCached bool, wantStatus jobState) {
		t.Helper()
		j, code, raw := postJob(t, ts, JobSpec{Dataset: id, Config: JobConfig{K: k, Sigma: 2}})
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d (%s)", code, raw)
		}
		info := waitJob(t, ts, j.ID, 30*time.Second)
		if info.Status != string(wantStatus) || info.Cached != wantCached {
			t.Fatalf("job %s: status %q cached %v, want %q cached %v (%s)", j.ID, info.Status, info.Cached, wantStatus, wantCached, info.Error)
		}
	}
	advance := func(id string) {
		t.Helper()
		if _, code, raw := postAppend(t, ts, id, appendBatchCSV(3, 4, "")); code != http.StatusOK {
			t.Fatalf("append: status %d (%s)", code, raw)
		}
	}
	check := func(path string, freed func() bool) {
		t.Helper()
		if !freed() {
			t.Errorf("%s: generation 0 is still reachable after every job on it finished", path)
		}
	}

	done := register(24, "")
	freed := watchCurrent(t, s, done)
	run(done, 4, false, jobDone)
	advance(done)
	check("done", freed)

	failed := register(25, "")
	freed = watchCurrent(t, s, failed)
	run(failed, 5, false, jobFailed)
	advance(failed)
	check("failed", freed)

	hit := register(26, "")
	freed = watchCurrent(t, s, hit)
	run(hit, 4, false, jobDone)
	run(hit, 4, true, jobDone)
	advance(hit)
	check("cache hit", freed)

	hold, queued := register(27, ""), register(28, "")
	freed = watchCurrent(t, s, queued)
	blocker, code, raw := postJob(t, ts, JobSpec{Dataset: hold, Config: JobConfig{K: 6, Sigma: 2}})
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: status %d (%s)", code, raw)
	}
	<-started
	j, code, raw := postJob(t, ts, JobSpec{Dataset: queued, Config: JobConfig{K: 4, Sigma: 2}})
	if code != http.StatusAccepted || j.Status != string(jobQueued) {
		t.Fatalf("submit behind the blocker: status %d %q (%s)", code, j.Status, raw)
	}
	queuedJob, _ := s.getJob(j.ID)
	if st := s.cancelJob(queuedJob); st != jobCancelled {
		t.Fatalf("cancel queued job: %q", st)
	}
	advance(queued)
	// The worker has not dequeued the cancelled job yet.
	check("cancelled while queued", freed)
	close(gate)
	if info := waitJob(t, ts, blocker.ID, 30*time.Second); info.Status != string(jobDone) {
		t.Fatalf("blocker: %q (%s)", info.Status, info.Error)
	}

	target, baseline := register(30, ""), register(30, "0.2")
	freed = watchCurrent(t, s, baseline)
	dj, code, raw := postJob(t, ts, JobSpec{SpecVersion: SpecVersion, Dataset: target, Mode: ModeDiff, Baseline: baseline, Config: JobConfig{K: 4, Sigma: 2}})
	if code != http.StatusAccepted {
		t.Fatalf("submit diff: status %d (%s)", code, raw)
	}
	if info := waitJob(t, ts, dj.ID, 30*time.Second); info.Status != string(jobDone) {
		t.Fatalf("diff job: %q (%s)", info.Status, info.Error)
	}
	advance(baseline)
	check("diff baseline", freed)

	ctx, cancel := newShutdownCtx()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Restored terminal records are built like fresh submissions, over the
	// restored generation.
	s2, ts2 := newTestServer(t, Config{Pool: 1, JournalDir: dir})
	freed = watchCurrent(t, s2, done)
	if _, code, raw := postAppend(t, ts2, done, appendBatchCSV(9, 4, "")); code != http.StatusOK {
		t.Fatalf("append after restart: status %d (%s)", code, raw)
	}
	check("restored terminal record", freed)
}

// TestAppendViewsCapped: every generation a snapshot hands out is made of
// capacity-capped views (cap == len), so an append through one copies, and
// no later generation changes.
func TestAppendViewsCapped(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1})
	info, code := registerCSV(t, ts, testCSV(24), "err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	d, _ := s.reg.get(info.ID)
	capped := func(snap dsSnapshot) {
		t.Helper()
		rowPtr, colIdx := snap.Enc.X.Components()
		for name, lc := range map[string][2]int{
			"rowPtr": {len(rowPtr), cap(rowPtr)},
			"colIdx": {len(colIdx), cap(colIdx)},
			"codes":  {len(snap.DS.X0.Data), cap(snap.DS.X0.Data)},
			"errors": {len(snap.ErrVec), cap(snap.ErrVec)},
			"GenEnd": {len(snap.GenEnd), cap(snap.GenEnd)},
			"GenAt":  {len(snap.GenAt), cap(snap.GenAt)},
		} {
			if lc[0] != lc[1] {
				t.Errorf("generation %d: %s has len %d, cap %d", snap.Gen, name, lc[0], lc[1])
			}
		}
	}
	snaps := []dsSnapshot{d.snapshot()}
	capped(snaps[0])
	for g, grow := range []string{"", "d9", "", ""} {
		if _, code, raw := postAppend(t, ts, info.ID, appendBatchCSV(40+g*5, 5, grow)); code != http.StatusOK {
			t.Fatalf("append %d: status %d (%s)", g+1, code, raw)
		}
		snaps = append(snaps, d.snapshot())
		capped(snaps[g+1])
	}

	// Append through every earlier generation's views; the last generation
	// must read as before.
	last := snaps[len(snaps)-1]
	lastPtr, lastCol := last.Enc.X.Components()
	want := fmt.Sprint(lastPtr, lastCol, last.DS.X0.Data, last.ErrVec, last.GenEnd)
	for _, snap := range snaps[:len(snaps)-1] {
		rowPtr, colIdx := snap.Enc.X.Components()
		_ = append(rowPtr, -1)
		_ = append(colIdx, -1)
		_ = append(snap.DS.X0.Data, -1)
		_ = append(snap.ErrVec, -1)
		_ = append(snap.GenEnd, -1)
	}
	if got := fmt.Sprint(lastPtr, lastCol, last.DS.X0.Data, last.ErrVec, last.GenEnd); got != want {
		t.Fatalf("appending through an earlier generation's views changed the last one:\n got %s\nwant %s", got, want)
	}
}

// mustJSON renders a result as the server serves it.
func mustJSON(t *testing.T, res *core.Result) []byte {
	t.Helper()
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return js
}

// adultCells renders rows [lo, hi) of a generated dataset as the cells an
// append carries: categorical values "v<code>" in feature order.
func adultCells(g *datagen.Generated, lo, hi int) [][]string {
	out := make([][]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		row := g.DS.X0.Row(i)
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = "v" + strconv.Itoa(v)
		}
		out = append(out, cells)
	}
	return out
}

// adultEntry registers rows [0, n) of a generated dataset in err-column
// mode, as a CSV upload would.
func adultEntry(tb testing.TB, g *datagen.Generated, n int) *datasetEntry {
	tb.Helper()
	var b strings.Builder
	for _, f := range g.DS.Features {
		b.WriteString(f.Name + ",")
	}
	b.WriteString("err\n")
	for i, cells := range adultCells(g, 0, n) {
		b.WriteString(strings.Join(cells, ","))
		b.WriteString("," + strconv.FormatFloat(g.Err[i], 'g', -1, 64) + "\n")
	}
	d, err := buildDataset(strings.NewReader(b.String()), registerOptions{Name: g.DS.Name, Err: "err"})
	if err != nil {
		tb.Fatalf("building dataset: %v", err)
	}
	return d
}

// TestAppendRowsCostsBatch: an append costs what it adds. 200 appends of 64
// rows onto a 30,000-row dataset allocate at most 4× the final generation's
// arrays (row pointers, column ids, codes and errors) in total; copying
// every array on every append would allocate about 170×.
func TestAppendRowsCostsBatch(t *testing.T) {
	const base, batches, rows = 30000, 200, 64
	g := datagen.Adult(5)
	d := adultEntry(t, g, base)
	// The batches resend registered rows, so no domain grows: growth remaps
	// the column ids, which is O(nnz) by design.
	cells := make([][][]string, batches)
	errs := make([][]float64, batches)
	for b := range cells {
		lo := (b * rows) % (base - rows)
		cells[b] = adultCells(g, lo, lo+rows)
		errs[b] = g.Err[lo : lo+rows]
	}
	at := time.Now()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for b := range cells {
		if _, err := d.appendRows(cells[b], errs[b], at); err != nil {
			t.Fatalf("append %d: %v", b+1, err)
		}
	}
	runtime.ReadMemStats(&after)

	snap := d.snapshot()
	rowPtr, colIdx := snap.Enc.X.Components()
	if n := snap.DS.NumRows(); n != base+batches*rows {
		t.Fatalf("final generation has %d rows, want %d", n, base+batches*rows)
	}
	final := 8 * (len(rowPtr) + len(colIdx) + len(snap.DS.X0.Data) + len(snap.ErrVec))
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d appends allocated %d bytes, %.2f× the final generation's %d array bytes", batches, alloc, float64(alloc)/float64(final), final)
	if alloc > 4*uint64(final) {
		t.Fatalf("%d appends allocated %d bytes, more than 4× the final generation's %d array bytes", batches, alloc, final)
	}
}

// TestBatchJobsDuringAppends runs batch jobs while appends land, some of
// them growing a domain. Every job evaluates the generation it was
// submitted on, and its result equals core.Run on a fresh registration of
// that generation's rows. CI runs it with -race -count=10.
func TestBatchJobsDuringAppends(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2, QueueDepth: 64})
	base := testCSV(40)
	info, code := registerCSV(t, ts, base, "err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	batches := make([]string, 10)
	for g := range batches {
		grow := ""
		if g%4 == 1 {
			grow = fmt.Sprintf("d%d", 10+g)
		}
		batches[g] = appendBatchCSV(7*g, 5, grow)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Plain requests: the helpers call t.Fatal, which only the test
		// goroutine may.
		for g, batch := range batches {
			resp, err := http.Post(ts.URL+"/v1/datasets/"+info.ID+"/rows", "text/csv", strings.NewReader(batch))
			if err != nil {
				t.Errorf("append %d: %v", g+1, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("append %d: status %d", g+1, resp.StatusCode)
				return
			}
		}
	}()
	configs := []JobConfig{{K: 4, Sigma: 2}, {K: 3, Sigma: 3}, {K: 5, Sigma: 2, Alpha: 0.9}}
	var ids []string
	for i := 0; i < 12; i++ {
		j, code, raw := postJob(t, ts, JobSpec{Dataset: info.ID, Config: configs[i%len(configs)]})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%s)", i, code, raw)
		}
		ids = append(ids, j.ID)
	}
	wg.Wait()

	gens := make([]int, len(ids))
	for i, id := range ids {
		got := waitJob(t, ts, id, 30*time.Second)
		if got.Status != string(jobDone) {
			t.Fatalf("job %s: %q (%s)", id, got.Status, got.Error)
		}
		gens[i] = got.Generation
		// A fresh registration of the generation's rows.
		var csv strings.Builder
		csv.WriteString(base)
		for _, batch := range batches[:got.Generation] {
			csv.WriteString(batch[strings.IndexByte(batch, '\n')+1:])
		}
		d, err := buildDataset(strings.NewReader(csv.String()), registerOptions{Err: "err"})
		if err != nil {
			t.Fatalf("registering generation %d afresh: %v", got.Generation, err)
		}
		cfg := configs[i%len(configs)].ToCore().WithDefaults(d.DS.NumRows())
		want, err := core.Run(context.Background(), d.Enc, d.DS.Features, d.ErrVec, nil, cfg)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if canonicalResult(t, got.Result) != canonicalResult(t, mustJSON(t, want)) {
			t.Fatalf("job %s at generation %d differs from a fresh run of that generation", id, got.Generation)
		}
	}
	t.Logf("jobs ran on generations %v", gens)
}

// TestGenerationSignatureChain: generation 0's signature is DataSignature
// (so dataset ids do not change), each later one chains from its parent
// over the appended rows, also across a grown domain, and a server
// restarted on the journal reproduces every generation's signature.
func TestGenerationSignatureChain(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Pool: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := newHTTPTestServer(t, s)
	info, code := registerCSV(t, ts, testCSV(24), "err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	d, _ := s.reg.get(info.ID)
	prev := d.snapshot()
	if sig := core.DataSignature(prev.Enc, prev.ErrVec, nil); info.Signature != fmt.Sprintf("%016x", sig) || info.ID != datasetID(sig) {
		t.Fatalf("generation 0: signature %s, id %s; DataSignature gives %016x", info.Signature, info.ID, sig)
	}

	for g, grow := range []string{"", "d9", ""} {
		ainfo, code, raw := postAppend(t, ts, info.ID, appendBatchCSV(30+g*7, 6, grow))
		if code != http.StatusOK {
			t.Fatalf("append %d: status %d (%s)", g+1, code, raw)
		}
		if grow != "" && len(ainfo.Grown) == 0 {
			t.Fatalf("append %d did not grow a domain", g+1)
		}
		cur := d.snapshot()
		if want := core.ChainSignature(prev.Sig, cur.Enc, cur.ErrVec, prev.DS.NumRows()); ainfo.Signature != fmt.Sprintf("%016x", want) {
			t.Fatalf("generation %d: signature %s, chained from generation %d gives %016x", ainfo.Generation, ainfo.Signature, g, want)
		}

		// Restart on the journal: the replayed generation has the same
		// signature.
		ctx, cancel := newShutdownCtx()
		err := s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if s, err = New(Config{Pool: 1, JournalDir: dir}); err != nil {
			t.Fatalf("restart: %v", err)
		}
		ts = newHTTPTestServer(t, s)
		d, _ = s.reg.get(info.ID)
		if got := d.info(); got.Generation != ainfo.Generation || got.Signature != ainfo.Signature {
			t.Fatalf("restarted at generation %d with signature %s, want %d and %s", got.Generation, got.Signature, ainfo.Generation, ainfo.Signature)
		}
		prev = d.snapshot()
	}
	ctx, cancel := newShutdownCtx()
	defer cancel()
	_ = s.Shutdown(ctx)
}

// TestJournalRestoresPreChainRecords: job records journaled before
// generation signatures chained carry, for generation 1 and later, the
// full-content hash. A restarted server re-serves such a done record by id
// without priming the cache, and reruns such an unfinished record fresh
// instead of resuming its checkpoint.
func TestJournalRestoresPreChainRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Pool: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := newHTTPTestServer(t, s)
	info, code := registerCSV(t, ts, testCSV(24), "err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	if _, code, raw := postAppend(t, ts, info.ID, appendBatchCSV(31, 6, "d9")); code != http.StatusOK {
		t.Fatalf("append: status %d (%s)", code, raw)
	}
	d, _ := s.reg.get(info.ID)
	snap := d.snapshot()
	oldSig := core.DataSignature(snap.Enc, snap.ErrVec, nil)
	if oldSig == snap.Sig {
		t.Fatal("generation 1's chained signature equals its full-content hash")
	}
	doneSpec := JobSpec{Dataset: info.ID, Config: JobConfig{K: 4, Sigma: 2}}
	j, _, _ := postJob(t, ts, doneSpec)
	done := waitJob(t, ts, j.ID, 30*time.Second)
	if done.Status != string(jobDone) || done.Generation != 1 {
		t.Fatalf("job: %q at generation %d (%s)", done.Status, done.Generation, done.Error)
	}
	ctx, cancel := newShutdownCtx()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Rewrite the records as the full-hash build journaled them: the done
	// job, and a job that was running, with a checkpoint no resume could
	// read.
	for _, rec := range []*journalJob{
		{Version: journalVersion, ID: j.ID, Spec: doneSpec, Status: string(jobDone), ResultJSON: done.Result, DataSig: oldSig},
		{Version: journalVersion, ID: "job-50", Spec: JobSpec{Dataset: info.ID, Config: JobConfig{K: 3, Sigma: 2}}, Status: string(jobRunning), DataSig: oldSig},
	} {
		if err := writeGob(filepath.Join(dir, rec.ID+journalJobSuffix), rec); err != nil {
			t.Fatalf("writing record %s: %v", rec.ID, err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "job-50.ck"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	_, ts2 := newTestServer(t, Config{Pool: 1, JournalDir: dir, Metrics: reg})
	restored := getJob(t, ts2, j.ID)
	if restored.Status != string(jobDone) || canonicalResult(t, restored.Result) != canonicalResult(t, done.Result) {
		t.Fatalf("restored done record: status %q, result differs", restored.Status)
	}
	again, _, _ := postJob(t, ts2, doneSpec)
	if again = waitJob(t, ts2, again.ID, 30*time.Second); again.Cached || again.Status != string(jobDone) {
		t.Fatalf("resubmission: status %q cached %v; a pre-chain record must not answer from the cache", again.Status, again.Cached)
	}
	if canonicalResult(t, again.Result) != canonicalResult(t, done.Result) {
		t.Fatal("rerun at the same generation differs from the restored result")
	}

	rerun := waitJob(t, ts2, "job-50", 30*time.Second)
	if rerun.Status != string(jobDone) {
		t.Fatalf("unfinished pre-chain record: %q (%s); it must rerun fresh, not resume", rerun.Status, rerun.Error)
	}
	want, err := core.Run(context.Background(), snap.Enc, snap.DS.Features, snap.ErrVec, nil, JobConfig{K: 3, Sigma: 2}.ToCore().WithDefaults(snap.DS.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	if canonicalResult(t, rerun.Result) != canonicalResult(t, mustJSON(t, want)) {
		t.Fatal("rerun result differs from a fresh run of generation 1")
	}
	if v := reg.Counter("sl_core_checkpoint_loads_total", "").Value(); v != 0 {
		t.Fatalf("%d checkpoints loaded; the rerun must start fresh", v)
	}
}

// TestRegisterJournalsBaseDuringAppends: a registration journals its
// generation 0 even while appends land on the entry it made reachable. Per
// dataset, one client registers; a second registers identical content the
// moment the entry is reachable, gets it back, and appends at once, as the
// append handler does. A server restarted on the journal must start, and
// reach every dataset's generation with the same signature. Run it under
// -race: the journal write and the append touch the entry concurrently.
func TestRegisterJournalsBaseDuringAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Pool: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const datasets = 8
	build := func(i int) *datasetEntry {
		d, err := buildDataset(strings.NewReader(testCSV(24+i)), registerOptions{Err: "err"})
		if err != nil {
			t.Fatalf("building dataset %d: %v", i, err)
		}
		return d
	}
	var wg sync.WaitGroup
	for i := 0; i < datasets; i++ {
		first, second := build(i), build(i)
		rows, errs, err := parseAppendCSV(strings.NewReader(appendBatchCSV(40+i, 5, "")), first.DS.Features, "err")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := s.registerDataset(first); err != nil {
				t.Errorf("register: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			for {
				if _, ok := s.reg.get(second.ID); ok {
					break
				}
				runtime.Gosched()
			}
			info, err := s.registerDataset(second)
			if err != nil || !info.Reused {
				t.Errorf("second registration: reused %v, err %v", info.Reused, err)
				return
			}
			d, _ := s.reg.get(second.ID)
			at := time.Now()
			ainfo, err := d.appendRows(rows, errs, at)
			if err == nil {
				err = s.journal.saveAppend(d.ID, ainfo.Generation, rows, errs, at.UnixNano())
			}
			if err != nil {
				t.Errorf("append: %v", err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := map[string]DatasetInfo{}
	for _, d := range s.reg.list() {
		want[d.ID] = d.info()
	}
	if len(want) != datasets {
		t.Fatalf("%d datasets registered, want %d", len(want), datasets)
	}
	ctx, cancel := newShutdownCtx()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s2, err := New(Config{Pool: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Shutdown(ctx) //nolint:errcheck // nothing runs
	for id, w := range want {
		d, ok := s2.reg.get(id)
		if !ok {
			t.Fatalf("%s not restored", id)
		}
		if got := d.info(); got.Generation != 1 || got.Generation != w.Generation || got.Signature != w.Signature {
			t.Errorf("%s restarted at generation %d with signature %s, want %d and %s", id, got.Generation, got.Signature, w.Generation, w.Signature)
		}
	}
}

// TestJournalRestoresJobGeneration: a done job reports the dataset
// generation it ran on after a restart, not the dataset's current one, and
// a record journaled before jobs recorded their generation reports 0.
func TestJournalRestoresJobGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Pool: 1, JournalDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := newHTTPTestServer(t, s)
	info, code := registerCSV(t, ts, testCSV(24), "err=err")
	if code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	appendBatch := func(offset int) {
		t.Helper()
		if _, code, raw := postAppend(t, ts, info.ID, appendBatchCSV(offset, 6, "")); code != http.StatusOK {
			t.Fatalf("append: status %d (%s)", code, raw)
		}
	}
	appendBatch(30)
	spec := JobSpec{Dataset: info.ID, Config: JobConfig{K: 4, Sigma: 2}}
	j, _, _ := postJob(t, ts, spec)
	done := waitJob(t, ts, j.ID, 30*time.Second)
	if done.Status != string(jobDone) || done.Generation != 1 {
		t.Fatalf("job: %q at generation %d (%s)", done.Status, done.Generation, done.Error)
	}
	appendBatch(40)
	appendBatch(50)
	ctx, cancel := newShutdownCtx()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	legacy := &journalJob{Version: journalVersion, ID: "job-60", Spec: spec, Status: string(jobDone), ResultJSON: done.Result}
	if err := writeGob(filepath.Join(dir, legacy.ID+journalJobSuffix), legacy); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Pool: 1, JournalDir: dir})
	d, _ := s2.reg.get(info.ID)
	if g := d.info().Generation; g != 3 {
		t.Fatalf("restored dataset at generation %d, want 3", g)
	}
	if got := getJob(t, ts2, j.ID); got.Status != string(jobDone) || got.Generation != 1 {
		t.Fatalf("restored job: %q at generation %d, want done at 1", got.Status, got.Generation)
	}
	if got := getJob(t, ts2, legacy.ID); got.Status != string(jobDone) || got.Generation != 0 {
		t.Fatalf("restored legacy record: %q at generation %d, want done at 0", got.Status, got.Generation)
	}
}

// BenchmarkRestoreAppends measures what a journaled server pays before it
// serves: server.New over a journal of one Adult-size dataset (32,561 rows)
// plus 32 appends of 64 rows, replayed through the append path.
func BenchmarkRestoreAppends(b *testing.B) {
	dir := b.TempDir()
	s, err := New(Config{Pool: 1, JournalDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	g, pool := datagen.Adult(1), datagen.Adult(2)
	d := adultEntry(b, g, g.DS.NumRows())
	if _, err := s.registerDataset(d); err != nil {
		b.Fatal(err)
	}
	for gen := 0; gen < 32; gen++ {
		rows, errs := adultCells(pool, gen*64, (gen+1)*64), pool.Err[gen*64:(gen+1)*64]
		at := time.Now()
		info, err := d.appendRows(rows, errs, at)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.journal.saveAppend(d.ID, info.Generation, rows, errs, at.UnixNano()); err != nil {
			b.Fatal(err)
		}
	}
	shutdown := func(s *Server) {
		ctx, cancel := newShutdownCtx()
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	}
	shutdown(s)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(Config{Pool: 1, JournalDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		shutdown(s)
		b.StartTimer()
	}
}
