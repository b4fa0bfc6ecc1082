package core

import (
	"context"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// TestCheckpointResumeByteIdentical: a run killed between levels and resumed
// from its checkpoint must produce top-K byte-identical to the
// uninterrupted run — same predicates, same float64 bits.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	ds, e := randomDataset(rng, 400, 5, 4)
	base := Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref, err := runDS(ds, e, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Levels) < 3 {
		t.Fatalf("reference run only reached level %d; interruption test needs >= 3", len(ref.Levels))
	}

	for _, killAfter := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "ck.gob")
		// First run: cancel the context inside the OnLevel callback after
		// killAfter levels — the checkpoint for that level is already on
		// disk (persisted before the callback fires).
		ctx, cancel := context.WithCancel(context.Background())
		cfg := base
		cfg.CheckpointPath = path
		cfg.OnLevel = func(ls LevelStats) {
			if ls.Level == killAfter {
				cancel()
			}
		}
		enc, err := frame.OneHot(ds)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(ctx, enc, ds.Features, e, nil, cfg); err == nil {
			t.Fatalf("killAfter=%d: interrupted run should error", killAfter)
		}
		cancel()

		// Second run resumes from the checkpoint.
		cfg2 := base
		cfg2.CheckpointPath = path
		cfg2.Resume = true
		resumedFrom := 0
		cfg2.OnLevel = func(ls LevelStats) {
			if resumedFrom == 0 {
				resumedFrom = ls.Level
			}
		}
		got, err := runDS(ds, e, nil, cfg2)
		if err != nil {
			t.Fatalf("killAfter=%d: resume: %v", killAfter, err)
		}
		if resumedFrom != killAfter+1 {
			t.Fatalf("killAfter=%d: resumed run re-enumerated from level %d, want %d", killAfter, resumedFrom, killAfter+1)
		}
		if !reflect.DeepEqual(got.TopK, ref.TopK) {
			t.Fatalf("killAfter=%d: resumed top-K differs from uninterrupted run:\n got %v\nwant %v", killAfter, got.TopK, ref.TopK)
		}
		if len(got.Levels) != len(ref.Levels) {
			t.Fatalf("killAfter=%d: resumed run recorded %d levels, want %d", killAfter, len(got.Levels), len(ref.Levels))
		}
		for i := range got.Levels {
			g, r := got.Levels[i], ref.Levels[i]
			if g.Level != r.Level || g.Candidates != r.Candidates || g.Valid != r.Valid || g.Pruned != r.Pruned {
				t.Fatalf("killAfter=%d: level %d stats diverge after resume: got %+v want %+v", killAfter, i+1, g, r)
			}
		}
	}
}

// TestCheckpointExtendsMaxLevel: MaxLevel is excluded from the signature by
// design — a run capped at level 2 can be resumed with a deeper cap and
// must match the uncapped run exactly.
func TestCheckpointExtendsMaxLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds, e := randomDataset(rng, 400, 5, 4)
	base := Config{K: 5, Sigma: 4, Alpha: 0.9}
	ref, err := runDS(ds, e, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.gob")
	shallow := base
	shallow.MaxLevel = 2
	shallow.CheckpointPath = path
	if _, err := runDS(ds, e, nil, shallow); err != nil {
		t.Fatal(err)
	}
	deep := base
	deep.CheckpointPath = path
	deep.Resume = true
	got, err := runDS(ds, e, nil, deep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("extended run differs from uncapped run:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
}

// TestCheckpointSignatureMismatch: a checkpoint written for different data
// or configuration must be refused, not silently mixed in.
func TestCheckpointSignatureMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ds, e := randomDataset(rng, 300, 4, 3)
	path := filepath.Join(t.TempDir(), "ck.gob")
	cfg := Config{K: 4, Sigma: 3, Alpha: 0.9, CheckpointPath: path}
	if _, err := runDS(ds, e, nil, cfg); err != nil {
		t.Fatal(err)
	}

	t.Run("different-errors", func(t *testing.T) {
		e2 := append([]float64(nil), e...)
		e2[0] += 0.5
		r := cfg
		r.Resume = true
		if _, err := runDS(ds, e2, nil, r); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("different error vector: got %v, want a signature mismatch wrapping ErrBadCheckpoint", err)
		}
	})
	t.Run("different-config", func(t *testing.T) {
		r := cfg
		r.Resume = true
		r.Alpha = 0.5
		if _, err := runDS(ds, e, nil, r); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("different alpha: got %v, want a signature mismatch wrapping ErrBadCheckpoint", err)
		}
	})
}

// TestCheckpointDiffRefused: RunDiff's two directions would share one
// checkpoint file — resuming read the other direction's state and failed the
// signature check — so a diff run with a CheckpointPath is refused before
// anything runs, with or without Resume, and writes no file.
func TestCheckpointDiffRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	ds, e := randomDataset(rng, 300, 4, 3)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	eNew := append([]float64(nil), e[1:]...)
	eNew = append(eNew, e[0])
	for _, resume := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "ck.gob")
		cfg := Config{K: 4, Sigma: 3, Alpha: 0.9, CheckpointPath: path, Resume: resume}
		if _, err := RunDiff(context.Background(), enc, ds.Features, e, eNew, cfg); !errors.Is(err, ErrDiffCheckpoint) {
			t.Errorf("resume=%v: got %v, want ErrDiffCheckpoint", resume, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("resume=%v: checkpoint file exists after a refused diff run (stat: %v)", resume, err)
		}
	}
}

// TestCheckpointMissingFileFreshStart: Resume with no checkpoint on disk is
// a fresh run, not an error.
func TestCheckpointMissingFileFreshStart(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ds, e := randomDataset(rng, 300, 4, 3)
	cfg := Config{K: 4, Sigma: 3, Alpha: 0.9}
	ref, err := runDS(ds, e, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := cfg
	r.CheckpointPath = filepath.Join(t.TempDir(), "never-written.gob")
	r.Resume = true
	got, err := runDS(ds, e, nil, r)
	if err != nil {
		t.Fatalf("missing checkpoint should start fresh: %v", err)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("fresh-start top-K differs from reference:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
}

// TestCheckpointCorruptFile: a torn or garbled checkpoint is an error, not
// a silent fresh start — the caller asked to resume real work.
func TestCheckpointCorruptFile(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	ds, e := randomDataset(rng, 300, 4, 3)
	path := filepath.Join(t.TempDir(), "ck.gob")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 4, Sigma: 3, Alpha: 0.9, CheckpointPath: path, Resume: true}
	if _, err := runDS(ds, e, nil, cfg); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("corrupt checkpoint: got %v, want a decoding error wrapping ErrBadCheckpoint", err)
	}
}

// setupCounter is an ExternalEvaluator that only counts Setup calls.
type setupCounter struct{ setups int }

func (s *setupCounter) Setup(context.Context, *matrix.CSR, []float64) error {
	s.setups++
	return nil
}

func (s *setupCounter) Eval(context.Context, [][]int, int) ([]float64, []float64, []float64, error) {
	return nil, nil, nil, errors.New("setupCounter does not evaluate")
}

// TestCheckpointRefusalsWrapSentinel: a checkpoint of another version or
// with an invalid level is refused with ErrBadCheckpoint too, so a caller
// can tell every refusal (drop the file and run from level 1) from an I/O
// failure. The refusal comes before any level is reported and before an
// external evaluator is set up, so such a rerun repeats no side effect.
func TestCheckpointRefusalsWrapSentinel(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	ds, e := randomDataset(rng, 300, 4, 3)
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 4, Sigma: 3, Alpha: 0.9, Resume: true}
	sig := Signature(enc, e, nil, cfg.WithDefaults(len(e)))
	for _, tc := range []struct {
		st   checkpointState
		want string
	}{
		{checkpointState{Version: checkpointVersion + 1, Sig: sig, Level: 1}, "this build writes"},
		{checkpointState{Version: 1, Sig: sig, Level: 1}, "this build writes"},
		{checkpointState{Version: checkpointVersion, Sig: sig, Level: 0}, "invalid level"},
	} {
		st := tc.st
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "ck.gob")
		f, err := os.Create(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(&st); err != nil {
			t.Fatal(err)
		}
		f.Close()
		levels, ev := 0, &setupCounter{}
		cfg.OnLevel = func(LevelStats) { levels++ }
		cfg.Evaluator = ev
		if _, err := Run(context.Background(), enc, ds.Features, e, nil, cfg); !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("version %d, level %d: got %v, want %q wrapping ErrBadCheckpoint", st.Version, st.Level, err, tc.want)
		}
		if levels != 0 || ev.setups != 0 {
			t.Errorf("version %d, level %d: %d levels reported and %d evaluator set-ups before the refusal, want 0 and 0", st.Version, st.Level, levels, ev.setups)
		}
	}
}

// TestCheckpointAtomicOverwrite: each level's save fully replaces the file;
// after a completed run the checkpoint holds the final level and resuming
// from it is a no-op that still returns the full result.
func TestCheckpointAtomicOverwrite(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	ds, e := randomDataset(rng, 300, 4, 3)
	path := filepath.Join(t.TempDir(), "ck.gob")
	cfg := Config{K: 4, Sigma: 3, Alpha: 0.9, CheckpointPath: path}
	ref, err := runDS(ds, e, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after save")
	}
	r := cfg
	r.Resume = true
	got, err := runDS(ds, e, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.TopK, ref.TopK) {
		t.Fatalf("no-op resume differs from original run:\n got %v\nwant %v", got.TopK, ref.TopK)
	}
}
