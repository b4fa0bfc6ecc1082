package difftest

import (
	"testing"

	"sliceline/internal/core"
)

// FuzzDiffBruteForce is the differential harness as a fuzz target: any seed
// produces a tiny random dataset on which the pruned enumerator must agree
// with exhaustive brute-force enumeration. The fuzzer explores the seed
// space far beyond the fixed seed list of TestDiffBruteForce.
func FuzzDiffBruteForce(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := Generate(seed, Tiny)
		c.W = nil // brute force is unweighted
		truth, err := core.BruteForce(c.DS, c.E, c.Cfg)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		got, err := runDS(c.DS, c.E, nil, c.Cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if err := CompareToBruteForce(got, truth, Tol); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, ReproLine("TestDiffBruteForce", seed))
		}
		if err := CheckInvariants(got, c.DS.NumFeatures()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
