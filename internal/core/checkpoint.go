package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// checkpointVersion guards the on-disk layout and the meaning of what it
// stores; a mismatch refuses to resume. Version 2: LevelStats.Pruned no
// longer counts unions that lack a parent, so a version-1 file's completed
// levels would mix the two definitions. Version 3: the frontier is its
// width and one int32 arena, under a new field name, so a version-2 file
// still decodes (gob skips its [][]int Cols) and is refused by its version.
const checkpointVersion = 3

// checkpointState is the gob-encoded on-disk form of a run's state after one
// completed lattice level. Restoring it and re-running the remaining levels
// reproduces the uninterrupted run exactly: enumeration is level-local (the
// level-L candidates depend only on the level-(L-1) frontier and the top-K
// threshold), and gob round-trips float64 bit-exactly, so a resumed run's
// top-K is byte-identical. The frontier is stored as the level's width and
// arena, and each top-K entry as its column ids.
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
	Cols  []int32
	Score float64
	SS    float64
	SE    float64
	SM    float64
}

type checkpointLevel struct {
	Width int     // columns per slice: the stored level
	IDs   []int32 // Width ids per slice (the level's arena)
	Sc    []float64
	Se    []float64
	Sm    []float64
	Ss    []float64
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
		Width: frontier.L, IDs: frontier.cols,
		Sc: frontier.sc, Se: frontier.se, Sm: frontier.sm, Ss: frontier.ss,
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
// A file it refuses is an error wrapping ErrBadCheckpoint: undecodable,
// another version, another signature, an invalid level, a frontier whose
// width is not the level or whose ids and statistics disagree in count, or
// a frontier or top-K candidate that fails CheckCands against nCols.
func (c *checkpointer) load(tk *topK, frontier *level, res *Result, nCols int) (int, error) {
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
		return 0, fmt.Errorf("core: decoding checkpoint %s: %w: %w", c.path, err, ErrBadCheckpoint)
	}
	if st.Version != checkpointVersion {
		return 0, fmt.Errorf("core: checkpoint %s has version %d, this build writes %d: %w", c.path, st.Version, checkpointVersion, ErrBadCheckpoint)
	}
	if st.Sig != c.sig {
		return 0, fmt.Errorf("core: checkpoint %s was written for different data or configuration (signature %x vs %x); refusing to resume: %w", c.path, st.Sig, c.sig, ErrBadCheckpoint)
	}
	if st.Level < 1 {
		return 0, fmt.Errorf("core: checkpoint %s has invalid level %d: %w", c.path, st.Level, ErrBadCheckpoint)
	}
	fr, n := st.Frontier, len(st.Frontier.Ss)
	if fr.Width != st.Level || len(fr.Sc) != n || len(fr.Se) != n || len(fr.Sm) != n || len(fr.IDs)%fr.Width != 0 || len(fr.IDs)/fr.Width != n {
		return 0, fmt.Errorf("core: checkpoint %s has a level-%d frontier of width %d with %d ids and %d/%d/%d/%d statistics: %w",
			c.path, st.Level, fr.Width, len(fr.IDs), len(fr.Sc), len(fr.Se), len(fr.Sm), n, ErrBadCheckpoint)
	}
	if err := CheckCands(fr.IDs, fr.Width, nCols); err != nil {
		return 0, fmt.Errorf("core: checkpoint %s frontier: %w: %w", c.path, err, ErrBadCheckpoint)
	}
	tk.entries = tk.entries[:0]
	for _, e := range st.TopK {
		if err := CheckCands(e.Cols, len(e.Cols), nCols); err != nil {
			return 0, fmt.Errorf("core: checkpoint %s top-K: %w: %w", c.path, err, ErrBadCheckpoint)
		}
		tk.entries = append(tk.entries, tkEntry{
			cols: e.Cols, score: e.Score, ss: e.SS, se: e.SE, sm: e.SM,
		})
	}
	frontier.L, frontier.cols = fr.Width, fr.IDs
	frontier.sc, frontier.se, frontier.sm, frontier.ss = fr.Sc, fr.Se, fr.Sm, fr.Ss
	res.Levels = st.Levels
	res.Truncated = st.Truncated
	return st.Level, nil
}
