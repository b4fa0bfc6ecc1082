package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"sliceline/internal/frame"
)

// This file defines the FNV fingerprints shared by the checkpoint machinery
// and the server-side result cache (internal/server). Both consumers need the
// same question answered — "are these the inputs of that earlier run?" — so
// they share one definition and one test, instead of drifting apart.

// sigHasher wraps an FNV-64a stream with the fixed-width little-endian
// encoders every signature in this package uses.
type sigHasher struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
}

func newSigHasher() sigHasher { return sigHasher{h: fnv.New64a()} }

func (s sigHasher) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.h.Write(b[:])
}

func (s sigHasher) f64(v float64) { s.u64(math.Float64bits(v)) }

func (s sigHasher) flag(v bool) {
	if v {
		s.u64(1)
	} else {
		s.u64(0)
	}
}

func (s sigHasher) sum() uint64 { return s.h.Sum64() }

// DataSignature fingerprints the data inputs of an enumeration run: the
// one-hot matrix (dimensions and all three CSR components), the error vector
// and the optional weight vector (nil for unweighted runs). Two datasets with
// the same signature produce the same enumeration under the same
// configuration; content-addressed stores (the server's dataset registry)
// key on it directly.
func DataSignature(enc *frame.Encoding, e, w []float64) uint64 {
	s := newSigHasher()
	s.u64(uint64(enc.X.Rows()))
	s.u64(uint64(enc.X.Cols()))
	rowPtr, colIdx, val := enc.X.Components()
	for _, v := range rowPtr {
		s.u64(uint64(v))
	}
	for _, v := range colIdx {
		s.u64(uint64(v))
	}
	for _, v := range val {
		s.f64(v)
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

// ConfigSignature fingerprints the configuration switches that alter which
// candidates are generated, evaluated, or how their statistics are summed.
// The config must have defaults resolved (WithDefaults) so that, e.g., an
// explicit K=4 and a defaulted K hash identically.
//
// MaxLevel is deliberately excluded — resuming with a deeper level cap
// legitimately extends a shallower run, because the per-level state is
// identical up to the old cap. BlockSize and the evaluator are excluded too:
// re-running under a different execution plan produces the same result. Local
// plans (any kernel, block size or worker count) are bit-identical; a
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
	s.flag(cfg.PriorityEnumeration)
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
