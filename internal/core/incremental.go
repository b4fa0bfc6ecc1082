package core

import (
	"context"
	"fmt"

	"sliceline/internal/frame"
	"sliceline/internal/matrix"
)

// memoEntry is the stored evaluation state of one slice candidate: its
// statistics accumulated over rows [0, rows). Entries never go stale — a
// candidate pruned for several generations and re-enumerated later simply
// continues from where its scan stopped.
type memoEntry struct {
	rows       int
	ss, se, sm float64
}

// sliceMemo carries per-candidate slice statistics across generations of an
// incremental run. Keys are the candidate's ORIGINAL one-hot column ids (the
// reduced column space changes per generation as the σ-filter moves, original
// ids are stable modulo domain-growth remaps, which rekey the memo). The
// packed bitset covers the full one-hot width; Incremental.advance remaps and
// extends it in place for each new generation. eb holds the generation's
// packed errors when every one is 0 or 1, selecting binaryCounts: the memo
// keeps row order, which its continuations need, rather than the batch
// Kernel's binary layout.
type sliceMemo struct {
	bits    *matrix.ColumnBits
	eb      []uint64
	entries map[string]memoEntry
	hits    int // candidates continued from a memo entry, cumulative
	misses  int // candidates evaluated from row 0, cumulative
}

// memoKey encodes sorted original column ids into a compact map key.
func memoKey(cols []int) string {
	b := make([]byte, 4*len(cols))
	for i, c := range cols {
		b[i*4] = byte(c)
		b[i*4+1] = byte(c >> 8)
		b[i*4+2] = byte(c >> 16)
		b[i*4+3] = byte(c >> 24)
	}
	return string(b)
}

// memoKeyCols decodes a memo key back into column ids, appending to dst.
func memoKeyCols(dst []int, key string) []int {
	for i := 0; i+4 <= len(key); i += 4 {
		c := int(key[i]) | int(key[i+1])<<8 | int(key[i+2])<<16 | int(key[i+3])<<24
		dst = append(dst, c)
	}
	return dst
}

// rekey rewrites every memo key through a domain-growth column remap.
func (m *sliceMemo) rekey(remap []int) {
	out := make(map[string]memoEntry, len(m.entries))
	var cols []int
	for k, ent := range m.entries {
		cols = memoKeyCols(cols[:0], k)
		for i, c := range cols {
			cols[i] = remap[c]
		}
		out[memoKey(cols)] = ent
	}
	m.entries = out
}

// evalLevel is the incremental counterpart of Kernel.Eval: every candidate of
// a level is looked up by its original column ids; a memoized candidate scans
// only the rows appended since its last evaluation, seeded with the stored
// statistics, an unseen candidate scans from row 0. Both run evalBitsetFrom
// over row-ordered columns — its binary loop when the generation's errors are
// all 0 or 1, as they then are in every earlier generation too — and both
// land bit-identical to a from-scratch evaluation, whose Kernel returns the
// same bits from the binary layout. Candidates are sharded across workers
// like EvalBitsetWeighted — the map is read concurrently and updated serially
// afterwards.
func (m *sliceMemo) evalLevel(orig []int, e []float64, lv *level) {
	nc := lv.size()
	if nc == 0 {
		return
	}
	n := m.bits.Rows()
	r := rowVals{e: e, eb: m.eb}
	keys := make([]string, nc)
	hits := make([]bool, nc)
	matrix.ParallelFor(nc, func(lo, hi int) {
		var buf []int
		for s := lo; s < hi; s++ {
			buf = buf[:0]
			for _, c := range lv.cols[s] {
				buf = append(buf, orig[c])
			}
			key := memoKey(buf)
			keys[s] = key
			var from int
			var ss, se, sm float64
			if ent, ok := m.entries[key]; ok && ent.rows <= n {
				from, ss, se, sm = ent.rows, ent.ss, ent.se, ent.sm
				hits[s] = true
			}
			lv.ss[s], lv.se[s], lv.sm[s] = evalBitsetFrom(m.bits, r, buf, from, ss, se, sm)
		}
	})
	for s := 0; s < nc; s++ {
		m.entries[keys[s]] = memoEntry{rows: n, ss: lv.ss[s], se: lv.se[s], sm: lv.sm[s]}
		if hits[s] {
			m.hits++
		} else {
			m.misses++
		}
	}
}

// IncrementalStats reports the memo state of an incremental run, for
// observability and tests.
type IncrementalStats struct {
	Rows    int // row count of the last generation run
	Entries int // memoized candidates
	Hits    int // cumulative candidate evaluations continued from the memo
	Misses  int // cumulative candidate evaluations scanned from row 0
}

// Incremental maintains SliceLine top-K across the generations of a growing
// dataset. Each Run hands it one generation — an encoding, its feature
// descriptors and its error vector — and returns that generation's exact
// top-K; consecutive generations must extend each other (rows appended by a
// frame.Appender, old errors unchanged).
//
// The maintained result is bit-identical to a from-scratch Run over the
// same generation. The mechanism: level-1 statistics, the σ-filter, scoring
// and the pruning/enumeration control flow are recomputed from scratch each
// generation through the exact same code path as a batch run — they are
// O(nnz) and O(candidates), cheap — while the expensive part, the
// per-candidate row scans of levels >= 2, is memoized. A candidate evaluated
// at a prior generation scans only the appended rows, seeded with its stored
// statistics; sequential-continuation accumulation makes that bit-identical
// to a full scan. Lattice regions whose parents stay pruned are never
// scanned at all; a region whose parent statistics move past a stored
// pruning bound re-enters enumeration automatically (the control flow
// re-runs every generation) and resumes from whatever scan state the memo
// holds.
//
// Incremental is not safe for concurrent use: callers serialize Run (the
// server gives each monitor job one owning goroutine).
type Incremental struct {
	cfg  Config
	enc  *frame.Encoding // generation the memo covers; nil before the first Run
	e    []float64       // its error vector (a private copy)
	memo *sliceMemo
}

// NewIncremental builds an incremental evaluator. The configuration is
// captured once and reused every generation (σ defaulting still tracks the
// growing row count, exactly as a batch run would resolve it).
// Configurations that delegate evaluation or persist its state — external
// evaluators, checkpoint/resume — are rejected: the memo is the evaluation
// path.
func NewIncremental(cfg Config) (*Incremental, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case cfg.Evaluator != nil:
		return nil, fmt.Errorf("core: incremental runs cannot use an external evaluator")
	case cfg.CheckpointPath != "" || cfg.Resume:
		return nil, fmt.Errorf("core: incremental runs cannot use checkpoint/resume")
	}
	return &Incremental{cfg: cfg, memo: &sliceMemo{entries: make(map[string]memoEntry)}}, nil
}

// Stats returns the current memo statistics.
func (inc *Incremental) Stats() IncrementalStats {
	return IncrementalStats{
		Rows:    len(inc.e),
		Entries: len(inc.memo.entries),
		Hits:    inc.memo.hits,
		Misses:  inc.memo.misses,
	}
}

// Run evaluates one generation and returns its exact top-K, bit-identical to
// core.Run over the same inputs. Any number of appends since the previous
// Run fold in as one step. The generation must extend the previous one: no
// fewer rows, the same features with no domain narrower, and the previous
// errors a prefix of e. A violation returns an error and leaves the memo
// unchanged.
func (inc *Incremental) Run(ctx context.Context, enc *frame.Encoding, feats []frame.Feature, e []float64) (*Result, error) {
	if err := checkErrVec(e, enc.X.Rows()); err != nil {
		return nil, err
	}
	if err := inc.advance(enc, e); err != nil {
		return nil, err
	}
	inc.memo.eb = nil
	if binaryValues(e) {
		inc.memo.eb = packBinary(e)
	}
	return run(ctx, enc, feats, e, nil, inc.cfg, inc.memo)
}

// advance moves the memo to a new generation. Its bitset covers the full
// one-hot width, so a grown domain is a column remap derived from the two
// encodings' block offsets: column c of feature j moves to
// enc.Beg[j] + c - old.Beg[j]. The memo is rekeyed through the same remap
// and the bitset then extended with the appended rows.
func (inc *Incremental) advance(enc *frame.Encoding, e []float64) error {
	old := inc.enc
	if old == nil {
		inc.memo.bits = matrix.PackColumns(enc.X)
		inc.enc, inc.e = enc, append([]float64(nil), e...)
		return nil
	}
	if len(e) < len(inc.e) {
		return fmt.Errorf("core: generation has %d rows, the previous one %d", len(e), len(inc.e))
	}
	if len(enc.Beg) != len(old.Beg) {
		return fmt.Errorf("core: generation has %d features, the previous one %d", len(enc.Beg), len(old.Beg))
	}
	for j := range old.Beg {
		if enc.End[j]-enc.Beg[j] < old.End[j]-old.Beg[j] {
			return fmt.Errorf("core: feature %d narrowed from %d to %d values", j, old.End[j]-old.Beg[j], enc.End[j]-enc.Beg[j])
		}
	}
	for i, v := range inc.e {
		if e[i] != v {
			return fmt.Errorf("core: generation rewrites the error of row %d (%v, was %v)", i, e[i], v)
		}
	}
	if enc.Width() > old.Width() {
		remap := make([]int, old.Width())
		for j := range old.Beg {
			for c := old.Beg[j]; c < old.End[j]; c++ {
				remap[c] = enc.Beg[j] + c - old.Beg[j]
			}
		}
		if err := inc.memo.bits.RemapCols(enc.Width(), remap); err != nil {
			return err
		}
		inc.memo.rekey(remap)
	}
	if err := inc.memo.bits.AppendRows(enc.X); err != nil {
		return err
	}
	inc.enc, inc.e = enc, append(inc.e, e[len(inc.e):]...)
	return nil
}
