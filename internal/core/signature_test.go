package core

import (
	"os"
	"path/filepath"
	"testing"

	"sliceline/internal/frame"
)

func sigDataset(t *testing.T) (*frame.Encoding, []float64) {
	t.Helper()
	ds := &frame.Dataset{
		Name: "sig",
		X0:   frame.NewIntMatrix(4, 2),
		Features: []frame.Feature{
			{Name: "a", Domain: 2},
			{Name: "b", Domain: 2},
		},
	}
	codes := [][]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	for i, row := range codes {
		for j, v := range row {
			ds.X0.Set(i, j, v)
		}
	}
	enc, err := frame.OneHot(ds)
	if err != nil {
		t.Fatal(err)
	}
	return enc, []float64{1, 0, 0.5, 0}
}

func TestSignatureDeterministic(t *testing.T) {
	enc, e := sigDataset(t)
	cfg := Config{K: 3, Alpha: 0.9}.WithDefaults(4)
	if Signature(enc, e, nil, cfg) != Signature(enc, e, nil, cfg) {
		t.Fatal("same inputs hash differently")
	}
	if DataSignature(enc, e, nil) != DataSignature(enc, e, nil) {
		t.Fatal("same data hashes differently")
	}
	if ConfigSignature(cfg) != ConfigSignature(cfg) {
		t.Fatal("same config hashes differently")
	}
}

func TestDataSignatureSensitivity(t *testing.T) {
	enc, e := sigDataset(t)
	base := DataSignature(enc, e, nil)

	e2 := append([]float64(nil), e...)
	e2[1] = 0.25
	if DataSignature(enc, e2, nil) == base {
		t.Fatal("changed error vector did not change the signature")
	}
	if DataSignature(enc, e, []float64{1, 1, 1, 2}) == base {
		t.Fatal("adding weights did not change the signature")
	}

	// A different matrix changes the signature.
	ds2 := &frame.Dataset{
		Name:     "sig2",
		X0:       frame.NewIntMatrix(4, 2),
		Features: []frame.Feature{{Name: "a", Domain: 2}, {Name: "b", Domain: 2}},
	}
	for i := 0; i < 4; i++ {
		ds2.X0.Set(i, 0, 1)
		ds2.X0.Set(i, 1, 1+i%2)
	}
	enc2, err := frame.OneHot(ds2)
	if err != nil {
		t.Fatal(err)
	}
	if DataSignature(enc2, e, nil) == base {
		t.Fatal("different matrix did not change the signature")
	}
}

func TestConfigSignatureSensitivity(t *testing.T) {
	base := Config{}.WithDefaults(1000)
	baseSig := ConfigSignature(base)

	mutations := map[string]Config{
		"K":           {K: base.K + 1, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel},
		"Sigma":       {K: base.K, Sigma: base.Sigma + 1, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel},
		"Alpha":       {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha / 2, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel},
		"MaxCand":     {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel + 1},
		"SizePrune":   {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel, DisableSizePruning: true},
		"ScorePrune":  {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel, DisableScorePruning: true},
		"ParentPrune": {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel, DisableParentHandling: true},
		"Dedup":       {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel, DisableDedup: true},
		"Priority":    {K: base.K, Sigma: base.Sigma, Alpha: base.Alpha, MaxCandidatesPerLevel: base.MaxCandidatesPerLevel, PriorityEnumeration: true},
	}
	for name, cfg := range mutations {
		if ConfigSignature(cfg) == baseSig {
			t.Errorf("changing %s did not change the config signature", name)
		}
	}

	// Execution-plan and depth fields are excluded by design: MaxLevel
	// extension resume and cross-plan resume both rely on it.
	equiv := base
	equiv.MaxLevel = 3
	equiv.BlockSize = 64
	if ConfigSignature(equiv) != baseSig {
		t.Fatal("MaxLevel/BlockSize must not affect the config signature")
	}
}

func TestDefaultedConfigSignatureMatchesExplicit(t *testing.T) {
	n := 5000
	implicit := Config{}.WithDefaults(n)
	explicit := Config{K: DefaultK, Alpha: DefaultAlpha, Sigma: 50, MaxCandidatesPerLevel: 2_000_000}.WithDefaults(n)
	if ConfigSignature(implicit) != ConfigSignature(explicit) {
		t.Fatal("defaulted config does not hash like its explicit equivalent")
	}
}

// TestCheckpointUsesSharedSignature pins that the checkpoint file records
// exactly Signature(...): a checkpoint written through the public run path
// must load under the shared helper's value and be refused under any other.
func TestCheckpointUsesSharedSignature(t *testing.T) {
	enc, e := sigDataset(t)
	cfg := Config{K: 2, Sigma: 1, Alpha: 0.9}.WithDefaults(4)
	path := filepath.Join(t.TempDir(), "sig.ck")

	ck := &checkpointer{path: path, sig: Signature(enc, e, nil, cfg)}
	if err := ck.save(1, newTopK(2, 1), &level{}, &Result{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	// Same signature loads.
	load := &checkpointer{path: path, sig: Signature(enc, e, nil, cfg)}
	if lvl, err := load.load(newTopK(2, 1), &level{}, &Result{}); err != nil || lvl != 1 {
		t.Fatalf("load with matching signature: level %d, err %v", lvl, err)
	}

	// A different config signature is refused.
	other := cfg
	other.K = cfg.K + 1
	bad := &checkpointer{path: path, sig: Signature(enc, e, nil, other)}
	if _, err := bad.load(newTopK(2, 1), &level{}, &Result{}); err == nil {
		t.Fatal("checkpoint with mismatched signature was accepted")
	}
}

// TestSignatureGolden pins the signature values of sigDataset. They name
// dataset ids (ds_<sig>), the DataSig of journaled job records and the
// checkpoint signature, so a change to any of them orphans stored state:
// they may change only together with a migration.
func TestSignatureGolden(t *testing.T) {
	enc, e := sigDataset(t)
	cfg := Config{K: 3, Alpha: 0.9}.WithDefaults(4)
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"DataSignature", DataSignature(enc, e, nil), 0x788f434aa0aea2d9},
		{"weighted DataSignature", DataSignature(enc, e, []float64{1, 1, 1, 2}), 0x3eb88150e8fc9f80},
		{"ConfigSignature", ConfigSignature(cfg), 0xa1e32b285b7c6d10},
		{"Signature", Signature(enc, e, nil, cfg), 0x7bdc796e776f21cf},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %#x, want %#x", tc.name, tc.got, tc.want)
		}
	}
}

// TestDataSignatureZeroAllocs: the signature hashes in place. The server
// computes it on every registration, append and journal restore, where one
// allocation per hashed word would dominate the request's garbage.
func TestDataSignatureZeroAllocs(t *testing.T) {
	enc, e := sigDataset(t)
	w := []float64{1, 1, 1, 2}
	if allocs := testing.AllocsPerRun(20, func() { DataSignature(enc, e, w) }); allocs != 0 {
		t.Fatalf("DataSignature made %.0f allocations per call, want 0", allocs)
	}
}

// TestChainSignature: a generation's chained signature depends on its
// parent's and on every cell and error of the appended batch, including a
// batch that grows a domain, and nothing else: it reads only the batch.
func TestChainSignature(t *testing.T) {
	base := [][]string{{"a", "x"}, {"b", "y"}, {"a", "y"}}
	baseErrs := []float64{1, 0, 0.5}
	chain := func(parent uint64, batch [][]string, errs []float64) uint64 {
		t.Helper()
		cols := []frame.Column{{Name: "f", Kind: frame.Categorical}, {Name: "g", Kind: frame.Categorical}}
		for _, r := range base {
			cols[0].Strings = append(cols[0].Strings, r[0])
			cols[1].Strings = append(cols[1].Strings, r[1])
		}
		fr, err := frame.NewFrame(cols)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := frame.FromFrame(fr, "", 5)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := frame.OneHot(ds)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := frame.NewAppender(ds, enc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ap.AppendRows(batch)
		if err != nil {
			t.Fatal(err)
		}
		return ChainSignature(parent, res.Enc, append(append([]float64(nil), baseErrs...), errs...), len(base))
	}
	batch := [][]string{{"b", "x"}, {"a", "y"}}
	errs := []float64{0, 1}
	want := chain(7, batch, errs)
	if chain(7, batch, errs) != want {
		t.Fatal("same batch chains differently")
	}
	for name, got := range map[string]uint64{
		"parent":      chain(8, batch, errs),
		"one cell":    chain(7, [][]string{{"b", "x"}, {"b", "y"}}, errs),
		"one error":   chain(7, batch, []float64{0, 0.5}),
		"grown":       chain(7, [][]string{{"b", "x"}, {"c", "y"}}, errs),
		"longer":      chain(7, append(batch, []string{"a", "x"}), append(errs, 0)),
		"grown other": chain(7, [][]string{{"b", "z"}, {"a", "y"}}, errs),
	} {
		if got == want {
			t.Errorf("changing the %s did not change the chained signature", name)
		}
	}
}
