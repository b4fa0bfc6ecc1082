package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sliceline/internal/core"
	"sliceline/internal/frame"
)

// streamCase is one appendable differential case: a FromFrame-built dataset
// (Generate's raw datasets carry no column encoders, so they cannot append),
// its appender, the accumulated error vector, and the run configuration.
type streamCase struct {
	ds  *frame.Dataset
	enc *frame.Encoding
	ap  *frame.Appender
	e   []float64
	cfg core.Config
	rng *rand.Rand
}

// genStreamCase derives an appendable case deterministically from a seed by
// rendering a random categorical CSV through the production ingestion path
// (ReadCSV → FromFrame → OneHot → NewAppender). Values are non-numeric
// strings so every column stays categorical.
func genStreamCase(t *testing.T, seed int64) *streamCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nFeats := 2 + rng.Intn(3)
	nRows := 40 + rng.Intn(80)
	doms := make([]int, nFeats)
	var b strings.Builder
	for j := 0; j < nFeats; j++ {
		doms[j] = 2 + rng.Intn(3)
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "f%d", j)
	}
	b.WriteByte('\n')
	for i := 0; i < nRows; i++ {
		for j := 0; j < nFeats; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "v%d", rng.Intn(doms[j]))
		}
		b.WriteByte('\n')
	}
	f, err := frame.ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("seed %d: ReadCSV: %v", seed, err)
	}
	ds, err := frame.FromFrame(f, "", 10)
	if err != nil {
		t.Fatalf("seed %d: FromFrame: %v", seed, err)
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatalf("seed %d: OneHot: %v", seed, err)
	}
	ap, err := frame.NewAppender(ds, enc)
	if err != nil {
		t.Fatalf("seed %d: NewAppender: %v", seed, err)
	}
	sc := &streamCase{ds: ds, enc: enc, ap: ap, rng: rng}
	sc.e = sc.randErrs(nRows)
	sc.cfg = core.Config{
		K:     1 + rng.Intn(6),
		Sigma: 1 + rng.Intn(6),
		Alpha: 0.5 + 0.5*rng.Float64(),
	}
	return sc
}

// randErrs mixes exact zeros with continuous positive errors, like Generate.
func (sc *streamCase) randErrs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if sc.rng.Float64() >= 0.3 {
			out[i] = sc.rng.Float64()
		}
	}
	return out
}

// randBatch renders one append batch over the current feature domains; when
// grow is true the first row introduces one brand-new value per feature with
// probability ½ (at least one feature always grows).
func (sc *streamCase) randBatch(gen int, grow bool) [][]string {
	feats := sc.ap.Dataset().Features
	rows := 3 + sc.rng.Intn(8)
	out := make([][]string, rows)
	for i := range out {
		cells := make([]string, len(feats))
		for j, ft := range feats {
			cells[j] = fmt.Sprintf("v%d", sc.rng.Intn(ft.Domain))
		}
		out[i] = cells
	}
	if grow {
		grown := false
		for j := range feats {
			if sc.rng.Intn(2) == 0 || (!grown && j == len(feats)-1) {
				out[0][j] = fmt.Sprintf("g%d_%d", gen, j)
				grown = true
			}
		}
	}
	return out
}

// levelCounts returns a result's per-level enumeration counts without the
// wall-clock field, so two runs' counts compare exactly.
func levelCounts(r *core.Result) []core.LevelStats {
	out := append([]core.LevelStats(nil), r.Levels...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// TestDiffStreamingGenerations is the streaming differential plan: run an
// incremental evaluator on a base generation, then append several batches —
// including ones that grow feature domains — and at EVERY generation require
// the maintained top-K to be bit-identical (CompareExact) to a frozen from-scratch run over
// the accumulated encoding with the builtin auto plan, with the same
// per-level counts, and to the same run through the fused CSR kernel
// (kernel/csr) — every local kernel returns the same bits.
func TestDiffStreamingGenerations(t *testing.T) {
	const testName = "TestDiffStreamingGenerations"
	ctx := context.Background()
	for _, seed := range Seeds(seedCount(15, 4)) {
		sc := genStreamCase(t, seed)
		inc, err := core.NewIncremental(sc.cfg)
		if err != nil {
			t.Fatalf("seed %d: NewIncremental: %v", seed, err)
		}

		curEnc, curFeats := sc.enc, sc.ds.Features
		check := func(gen int) {
			got, err := inc.Run(ctx, curEnc, curFeats, sc.e)
			if err != nil {
				failf(t, testName, seed, "generation %d: incremental run: %v", gen, err)
				return
			}
			ref, err := core.Run(context.Background(), curEnc, curFeats, sc.e, nil, sc.cfg)
			if err != nil {
				failf(t, testName, seed, "generation %d: reference run: %v", gen, err)
				return
			}
			if err := CompareExact(ref, got); err != nil {
				failf(t, testName, seed, "generation %d: incremental vs frozen builtin/auto run: %v", gen, err)
			}
			if !reflect.DeepEqual(levelCounts(ref), levelCounts(got)) {
				failf(t, testName, seed, "generation %d: per-level counts differ: incremental %+v, frozen %+v", gen, levelCounts(got), levelCounts(ref))
			}
			csrCfg := sc.cfg
			csrCfg.Evaluator = &csrEvaluator{}
			alt, err := core.Run(context.Background(), curEnc, curFeats, sc.e, nil, csrCfg)
			if err != nil {
				failf(t, testName, seed, "generation %d: kernel/csr run: %v", gen, err)
				return
			}
			if err := CompareExact(alt, got); err != nil {
				failf(t, testName, seed, "generation %d: incremental vs kernel/csr: %v", gen, err)
			}
		}
		check(0)

		generations := 5 + sc.rng.Intn(3)
		for gen := 1; gen <= generations; gen++ {
			// Two guaranteed growth generations; others grow randomly.
			grow := gen == 2 || gen == generations || sc.rng.Intn(4) == 0
			batch := sc.randBatch(gen, grow)
			res, err := sc.ap.AppendRows(batch)
			if err != nil {
				t.Fatalf("seed %d: generation %d: AppendRows: %v", seed, gen, err)
			}
			if grow && len(res.Grown) == 0 {
				t.Fatalf("seed %d: generation %d planted a new value but nothing grew", seed, gen)
			}
			sc.e = append(append([]float64(nil), sc.e...), sc.randErrs(res.NewRows)...)
			curEnc, curFeats = res.Enc, res.DS.Features
			check(gen)
		}

		// The memo must actually be doing the incremental work: after
		// several re-runs over a growing dataset, continued evaluations
		// (hits) should exist unless the lattice never reached level 2.
		if st := inc.Stats(); st.Entries > 0 && st.Hits == 0 && st.Misses > st.Entries {
			t.Errorf("seed %d: memo never continued a candidate (entries=%d misses=%d)", seed, st.Entries, st.Misses)
		}
	}
}
