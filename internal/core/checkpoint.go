package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// checkpointVersion guards the on-disk layout; a mismatch refuses to resume.
const checkpointVersion = 1

// checkpointState is the gob-encoded on-disk form of a run's state after one
// completed lattice level. Restoring it and re-running the remaining levels
// reproduces the uninterrupted run exactly: enumeration is level-local (the
// level-L candidates depend only on the level-(L-1) frontier and the top-K
// threshold), and gob round-trips float64 bit-exactly, so a resumed run's
// top-K is byte-identical.
type checkpointState struct {
	Version int
	Sig     uint64
	Level   int // last completed lattice level

	TopK     []checkpointEntry
	Frontier checkpointLevel

	Levels    []LevelStats
	Truncated bool
}

type checkpointEntry struct {
	Cols  []int
	Score float64
	SS    float64
	SE    float64
	SM    float64
}

type checkpointLevel struct {
	Cols [][]int
	Sc   []float64
	Se   []float64
	Sm   []float64
	Ss   []float64
}

// checkpointer persists enumeration state level by level. A nil checkpointer
// is valid and does nothing, so the enumeration loop calls it unconditionally.
type checkpointer struct {
	path string
	sig  uint64
}

// save writes the state after completed level lvl, atomically (temp file +
// rename), so a crash mid-write leaves the previous checkpoint intact.
func (c *checkpointer) save(lvl int, tk *topK, frontier *level, res *Result) error {
	if c == nil {
		return nil
	}
	st := checkpointState{
		Version:   checkpointVersion,
		Sig:       c.sig,
		Level:     lvl,
		Levels:    res.Levels,
		Truncated: res.Truncated,
	}
	for _, e := range tk.entries {
		st.TopK = append(st.TopK, checkpointEntry{
			Cols: e.cols, Score: e.score, SS: e.ss, SE: e.se, SM: e.sm,
		})
	}
	st.Frontier = checkpointLevel{
		Cols: frontier.cols,
		Sc:   frontier.sc, Se: frontier.se, Sm: frontier.sm, Ss: frontier.ss,
	}
	tmp := c.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(&st); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: committing checkpoint: %w", err)
	}
	return nil
}

// load restores a checkpoint into the run's top-K and frontier, returning the
// last completed level, or 0 when no checkpoint file exists (fresh start).
// A checkpoint written for different data or configuration is an error.
func (c *checkpointer) load(tk *topK, frontier *level, res *Result) (int, error) {
	f, err := os.Open(c.path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("core: opening checkpoint: %w", err)
	}
	defer f.Close()
	var st checkpointState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return 0, fmt.Errorf("core: decoding checkpoint %s: %w", c.path, err)
	}
	if st.Version != checkpointVersion {
		return 0, fmt.Errorf("core: checkpoint %s has version %d, this build writes %d", c.path, st.Version, checkpointVersion)
	}
	if st.Sig != c.sig {
		return 0, fmt.Errorf("core: checkpoint %s was written for different data or configuration (signature %x vs %x); refusing to resume", c.path, st.Sig, c.sig)
	}
	if st.Level < 1 {
		return 0, fmt.Errorf("core: checkpoint %s has invalid level %d", c.path, st.Level)
	}
	tk.entries = tk.entries[:0]
	for _, e := range st.TopK {
		tk.entries = append(tk.entries, tkEntry{
			cols: e.Cols, score: e.Score, ss: e.SS, se: e.SE, sm: e.SM,
		})
	}
	frontier.cols = st.Frontier.Cols
	frontier.sc = st.Frontier.Sc
	frontier.se = st.Frontier.Se
	frontier.sm = st.Frontier.Sm
	frontier.ss = st.Frontier.Ss
	res.Levels = st.Levels
	res.Truncated = st.Truncated
	return st.Level, nil
}
