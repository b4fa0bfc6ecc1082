package core

import (
	"math"

	"sliceline/internal/frame"
)

// This file defines the FNV fingerprints shared by the checkpoint machinery
// and the server-side result cache (internal/server). Both consumers need the
// same question answered — "are these the inputs of that earlier run?" — so
// they share one definition and one test, instead of drifting apart.

// sigHasher is an FNV-64a state with the fixed-width little-endian encoders
// every signature in this package uses. It hashes in place, so a signature
// allocates nothing however many words it covers.
type sigHasher struct{ h uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newSigHasher() sigHasher { return sigHasher{h: fnvOffset64} }

// u64 hashes v's eight little-endian bytes, as hash/fnv's New64a would.
func (s *sigHasher) u64(v uint64) {
	h := s.h
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	s.h = h
}

func (s *sigHasher) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s *sigHasher) flag(v bool) {
	if v {
		s.u64(1)
	} else {
		s.u64(0)
	}
}

func (s *sigHasher) sum() uint64 { return s.h }

// DataSignature fingerprints the data inputs of an enumeration run: the
// one-hot matrix (dimensions and CSR components), the error vector and the
// optional weight vector (nil for unweighted runs). Two datasets with the
// same signature produce the same enumeration under the same configuration;
// content-addressed stores (the server's dataset registry) key on it
// directly.
func DataSignature(enc *frame.Encoding, e, w []float64) uint64 {
	s := newSigHasher()
	s.u64(uint64(enc.X.Rows()))
	s.u64(uint64(enc.X.Cols()))
	rowPtr, colIdx := enc.X.Components()
	for _, v := range rowPtr {
		s.u64(uint64(v))
	}
	for _, v := range colIdx {
		s.u64(uint64(v))
	}
	// The CSR once stored a value (always 1) per entry, and the hash covered
	// it. Hashing that 1 per entry keeps every signature value — dataset
	// ids, journaled job records and checkpoints name them — unchanged.
	for range colIdx {
		s.f64(1)
	}
	s.u64(uint64(len(e)))
	for _, v := range e {
		s.f64(v)
	}
	s.u64(uint64(len(w)))
	for _, v := range w {
		s.f64(v)
	}
	return s.sum()
}

// ChainSignature is the data signature of a generation that appends rows
// [from, n) of enc and e to a parent generation whose signature is parent:
// it hashes parent, the generation's row count, one-hot width and feature
// block offsets, then each appended row's one-hot ids and error, row by
// row. So an append hashes only its own rows. The Beg offsets pin how a
// grown domain moved the parent's ids: column c of feature j moves to
// enc.Beg[j] + c − Beg_parent[j].
//
// A chained signature names the generation's content together with its
// batch history: the same rows reached through different batches get
// different signatures. A cache keyed on it can miss, but never aliases
// different data.
func ChainSignature(parent uint64, enc *frame.Encoding, e []float64, from int) uint64 {
	s := newSigHasher()
	s.u64(parent)
	s.u64(uint64(enc.X.Rows()))
	s.u64(uint64(enc.X.Cols()))
	for _, b := range enc.Beg {
		s.u64(uint64(b))
	}
	for i := from; i < enc.X.Rows(); i++ {
		for _, c := range enc.X.RowEntries(i) {
			s.u64(uint64(c))
		}
		s.f64(e[i])
	}
	return s.sum()
}

// ConfigSignature fingerprints the configuration switches that alter which
// candidates are generated, evaluated, or how their statistics are summed.
// The config must have defaults resolved (WithDefaults) so that, e.g., an
// explicit K=4 and a defaulted K hash identically.
//
// MaxLevel is deliberately excluded — resuming with a deeper level cap
// legitimately extends a shallower run, because the per-level state is
// identical up to the old cap. The evaluator is excluded too: re-running
// under a different execution plan produces the same result. Local plans
// (any kernel, block size or worker count) are bit-identical; a
// row-partitioned external evaluator sums per-partition partials and may
// differ in the last ULPs of summed statistics. Callers that must distinguish
// depth-capped results (the server's result cache) combine this with
// MaxLevel explicitly.
func ConfigSignature(cfg Config) uint64 {
	s := newSigHasher()
	s.u64(uint64(cfg.K))
	s.u64(uint64(cfg.Sigma))
	s.f64(cfg.Alpha)
	s.u64(uint64(cfg.MaxCandidatesPerLevel))
	s.flag(cfg.DisableSizePruning)
	s.flag(cfg.DisableScorePruning)
	s.flag(cfg.DisableParentHandling)
	s.flag(cfg.DisableDedup)
	s.flag(false) // the retired priority-enumeration switch; keeps old signatures valid
	return s.sum()
}

// Signature combines DataSignature and ConfigSignature into the single
// fingerprint the checkpoint file records: everything a resumed run must
// agree on with the run that wrote the checkpoint.
func Signature(enc *frame.Encoding, e, w []float64, cfg Config) uint64 {
	return CombineSignatures(DataSignature(enc, e, w), ConfigSignature(cfg))
}

// CombineSignatures is Signature from its two halves, for callers that hold
// them already.
func CombineSignatures(dataSig, cfgSig uint64) uint64 {
	s := newSigHasher()
	s.u64(dataSig)
	s.u64(cfgSig)
	return s.sum()
}
