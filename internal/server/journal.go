package server

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sliceline/internal/frame"
)

// The job journal makes the service restartable: datasets and job records
// are gob files in one directory, and running jobs additionally write the
// core checkpoint machinery's level-by-level state. After a crash, New()
// reloads the directory — completed jobs are re-served from their stored
// result, in-flight and queued jobs are re-enqueued with Resume set so they
// continue from their last completed lattice level instead of starting over.
//
// Layout (all writes are atomic temp-file + rename, like core checkpoints):
//
//	<dir>/ds_<sig>.dataset.gob        registered dataset + error vector (generation 0)
//	<dir>/ds_<sig>.gen<n>.rows.gob    one appended row batch (generation n)
//	<dir>/job-<n>.job.gob             job record (spec, status, result JSON)
//	<dir>/job-<n>.ck                  core enumeration checkpoint (while running)
//
// Appends are journaled as raw string rows, not encoded matrices: on restore
// the base dataset is rebuilt from its file and every batch is re-applied in
// generation order through the exact same append path the live server used,
// so the restored entry reaches the same generation with the same signature.

const (
	journalDatasetSuffix = ".dataset.gob"
	journalJobSuffix     = ".job.gob"
	journalAppendSuffix  = ".rows.gob"
	journalVersion       = 1
)

// journalDataset is the on-disk form of a registry entry. The one-hot
// encoding and signature are recomputed on load (cheaper to redo than to
// store, and it revalidates the file). Fields added after v1 (ErrCol) decode
// as zero values from old files — gob tolerates missing fields — which is
// exactly the pre-streaming behaviour (not appendable).
type journalDataset struct {
	Version int
	ID      string
	Name    string
	DS      *frame.Dataset
	ErrVec  []float64
	ErrCol  string
}

// journalJob is the on-disk form of a job record. DataSig pins the dataset
// generation the job ran against, so a completed job restored after further
// appends does not seed the result cache under the newer generation's key,
// and Gen numbers that generation, so a restored done job reports it. A
// record journaled before Gen existed decodes it as 0.
type journalJob struct {
	Version    int
	ID         string
	Spec       JobSpec
	Status     string
	Cached     bool
	ErrMsg     string
	ResultJSON []byte
	DataSig    uint64
	Gen        int
}

// journalAppend is one appended row batch. Rows are the raw CSV cell values
// in feature order (plus the error values split out), i.e. the validated
// input of datasetEntry.appendRows.
type journalAppend struct {
	Version int
	ID      string // dataset id
	Gen     int    // generation this batch produced (1-based)
	Rows    [][]string
	Errs    []float64
	AtUnix  int64 // arrival time (unix nanos) so duration windows survive restarts
}

type journal struct {
	dir string
}

func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating journal directory: %w", err)
	}
	return &journal{dir: dir}, nil
}

func (j *journal) datasetPath(id string) string {
	return filepath.Join(j.dir, id+journalDatasetSuffix)
}

func (j *journal) jobPath(id string) string {
	return filepath.Join(j.dir, id+journalJobSuffix)
}

// checkpointPath is handed to core.Config.CheckpointPath for running jobs.
func (j *journal) checkpointPath(id string) string {
	return filepath.Join(j.dir, id+".ck")
}

func (j *journal) appendPath(id string, gen int) string {
	return filepath.Join(j.dir, fmt.Sprintf("%s.gen%d%s", id, gen, journalAppendSuffix))
}

// writeGob atomically writes one gob document.
func writeGob(path string, v any) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("server: writing journal: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("server: encoding journal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: writing journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: committing journal: %w", err)
	}
	return nil
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewDecoder(f).Decode(v)
}

// saveDataset journals a registered dataset's base: its generation 0, as
// the entry's snapshot captured it, so appends landing meanwhile do not
// reach the file. A nil journal is a no-op.
func (j *journal) saveDataset(d *datasetEntry, base *genData) error {
	if j == nil {
		return nil
	}
	return writeGob(j.datasetPath(d.ID), &journalDataset{
		Version: journalVersion, ID: d.ID, Name: d.Name, DS: base.DS, ErrVec: base.ErrVec, ErrCol: d.ErrCol,
	})
}

// saveAppend journals one appended row batch. A nil journal is a no-op.
func (j *journal) saveAppend(id string, gen int, rows [][]string, errs []float64, atUnix int64) error {
	if j == nil {
		return nil
	}
	return writeGob(j.appendPath(id, gen), &journalAppend{
		Version: journalVersion, ID: id, Gen: gen, Rows: rows, Errs: errs, AtUnix: atUnix,
	})
}

// loadAppends returns a dataset's journaled append batches in generation
// order. A gap in the sequence fails the load (the entry could not be
// replayed to its last journaled generation).
func (j *journal) loadAppends(id string) ([]*journalAppend, error) {
	paths, err := filepath.Glob(filepath.Join(j.dir, id+".gen*"+journalAppendSuffix))
	if err != nil {
		return nil, err
	}
	recs := make([]*journalAppend, 0, len(paths))
	for _, p := range paths {
		var rec journalAppend
		if err := readGob(p, &rec); err != nil {
			return nil, fmt.Errorf("server: reading journaled append %s: %w", p, err)
		}
		if rec.Version != journalVersion {
			return nil, fmt.Errorf("server: journaled append %s has version %d, this build reads %d", p, rec.Version, journalVersion)
		}
		recs = append(recs, &rec)
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].Gen < recs[b].Gen })
	for i, rec := range recs {
		if rec.Gen != i+1 {
			return nil, fmt.Errorf("server: journaled appends for %s have a gap: want generation %d, found %d", id, i+1, rec.Gen)
		}
	}
	return recs, nil
}

// saveJob journals a job's current record. A nil journal is a no-op. The
// job's journalMu orders its writes and each reads the state under it, so a
// slow save can never replace a newer record with a stale one.
func (j *journal) saveJob(jb *job) error {
	if j == nil {
		return nil
	}
	jb.journalMu.Lock()
	defer jb.journalMu.Unlock()
	jb.mu.Lock()
	st, errMsg, resultJSON := jb.state, jb.errMsg, jb.resultJSON
	jb.mu.Unlock()
	return j.writeJob(jb, st, errMsg, resultJSON)
}

// writeJob journals the job's record in state st; the result JSON is kept
// only for a done job. The caller holds jb.journalMu. A nil journal is a
// no-op.
func (j *journal) writeJob(jb *job, st jobState, errMsg string, resultJSON []byte) error {
	if j == nil {
		return nil
	}
	rec := &journalJob{
		Version: journalVersion,
		ID:      jb.id,
		Spec:    jb.spec,
		Status:  string(st),
		Cached:  jb.cached,
		ErrMsg:  errMsg,
		DataSig: jb.snap.Sig,
		Gen:     jb.snap.Gen,
	}
	if st == jobDone {
		rec.ResultJSON = resultJSON
	}
	return writeGob(j.jobPath(jb.id), rec)
}

// dropCheckpoint removes a finished job's enumeration checkpoint.
func (j *journal) dropCheckpoint(id string) {
	if j == nil {
		return
	}
	os.Remove(j.checkpointPath(id))
}

// loadDatasets restores every journaled dataset, re-encoding and
// re-validating each. Corrupt files fail the load: a server told to journal
// must not silently come up with half its state.
func (j *journal) loadDatasets() ([]*datasetEntry, error) {
	paths, err := filepath.Glob(filepath.Join(j.dir, "*"+journalDatasetSuffix))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*datasetEntry, 0, len(paths))
	for _, p := range paths {
		var rec journalDataset
		if err := readGob(p, &rec); err != nil {
			return nil, fmt.Errorf("server: reading journaled dataset %s: %w", p, err)
		}
		if rec.Version != journalVersion {
			return nil, fmt.Errorf("server: journaled dataset %s has version %d, this build reads %d", p, rec.Version, journalVersion)
		}
		enc, err := frame.OneHot(rec.DS)
		if err != nil {
			return nil, fmt.Errorf("server: re-encoding journaled dataset %s: %w", p, err)
		}
		entry, err := finishEntry(rec.DS, enc, rec.ErrVec, rec.Name, rec.ErrCol)
		if err != nil {
			return nil, fmt.Errorf("server: restoring journaled dataset %s: %w", p, err)
		}
		if entry.ID != rec.ID {
			return nil, fmt.Errorf("server: journaled dataset %s signature mismatch: file says %s, content hashes to %s", p, rec.ID, entry.ID)
		}
		out = append(out, entry)
	}
	return out, nil
}

// loadJobs restores every journaled job record in submission order and
// returns them along with the highest job sequence number seen, so fresh
// submissions continue the ID sequence without collisions.
func (j *journal) loadJobs() ([]*journalJob, int64, error) {
	paths, err := filepath.Glob(filepath.Join(j.dir, "*"+journalJobSuffix))
	if err != nil {
		return nil, 0, err
	}
	recs := make([]*journalJob, 0, len(paths))
	var maxSeq int64
	for _, p := range paths {
		var rec journalJob
		if err := readGob(p, &rec); err != nil {
			return nil, 0, fmt.Errorf("server: reading journaled job %s: %w", p, err)
		}
		if rec.Version != journalVersion {
			return nil, 0, fmt.Errorf("server: journaled job %s has version %d, this build reads %d", p, rec.Version, journalVersion)
		}
		if seq := jobSeq(rec.ID); seq > maxSeq {
			maxSeq = seq
		}
		recs = append(recs, &rec)
	}
	sort.Slice(recs, func(a, b int) bool { return jobSeq(recs[a].ID) < jobSeq(recs[b].ID) })
	return recs, maxSeq, nil
}

// jobSeq extracts the numeric suffix of a job id ("job-17" → 17).
func jobSeq(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}
