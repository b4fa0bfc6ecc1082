// Salaries: regression model debugging plus a miniature pruning ablation —
// the Figure 3 study of the paper. A ridge regression is fit on the
// Salaries-shaped dataset; SliceLine then finds the subgroups with the
// largest squared loss, first with all pruning enabled and then with the
// pruning techniques disabled one by one, printing the enumerated
// candidates per configuration.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sliceline"
	"sliceline/datasets"
)

func main() {
	ctx := context.Background()
	// The 2x2 replication (rows and columns doubled) adds the correlated
	// columns that make pruning interesting, exactly as in the paper's
	// ablation study.
	g := datasets.Salaries(1).ReplicateCols(2).ReplicateRows(2)
	ds := g.DS
	fmt.Printf("dataset: %d rows, %d features (Salaries 2x2)\n", ds.NumRows(), ds.NumFeatures())

	errVec, desc, err := sliceline.TrainAndScore(ds, sliceline.TaskRegression)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("model:", desc)

	sigma := (ds.NumRows() + 99) / 100
	res, err := sliceline.RunContext(ctx, ds, errVec, sliceline.Config{K: 4, Alpha: 0.95, Sigma: sigma})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop slices by squared loss:")
	for i, s := range res.TopK {
		fmt.Printf("#%d %s\n", i+1, s)
	}

	// With replicated (perfectly correlated) columns, the raw top-K is
	// dominated by copies of one subgroup; diversification keeps only
	// slices covering genuinely different rows.
	div, err := sliceline.Diversify(ds, res.TopK, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter diversification (max 50% row overlap):")
	for i, s := range div {
		fmt.Printf("#%d %s\n", i+1, s)
	}

	fmt.Println("\npruning ablation (candidates enumerated per configuration):")
	configs := []struct {
		name string
		cfg  sliceline.Config
	}{
		{"all pruning", sliceline.Config{}},
		{"no parent handling", sliceline.Config{DisableParentHandling: true}},
		{"+ no score pruning", sliceline.Config{DisableParentHandling: true, DisableScorePruning: true}},
		{"+ no size pruning", sliceline.Config{DisableParentHandling: true, DisableScorePruning: true, DisableSizePruning: true}},
		{"+ no deduplication", sliceline.Config{DisableParentHandling: true, DisableScorePruning: true, DisableSizePruning: true, DisableDedup: true, MaxCandidatesPerLevel: 200_000}},
	}
	for _, c := range configs {
		c.cfg.Alpha = 0.95
		c.cfg.Sigma = sigma
		start := time.Now()
		r, err := sliceline.RunContext(ctx, ds, errVec, c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		note := ""
		if r.Truncated {
			note = " (aborted: candidate budget exhausted — the paper's unpruned configs ran out of memory)"
		}
		fmt.Printf("  %-22s %8d candidates in %8v%s\n",
			c.name, r.TotalCandidates(), time.Since(start).Round(time.Millisecond), note)
	}
}
