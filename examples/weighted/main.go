// Weighted: slice finding over deduplicated data with row multiplicities.
// Production logs often contain massive duplication; instead of expanding
// them, SliceLine accepts (unique rows, weights) and returns exactly the
// same top-K as the expanded data — demonstrated here by running both forms
// and comparing.
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
	base := datasets.Adult(1)
	ds, _ := base.DS.Split(6000)
	ds.Name = "Adult"
	e := base.Err[:6000]

	// Physically replicate every row 5 times (the expanded form) ...
	const k = 5
	expanded := ds.ReplicateRows(k)
	expandedErr := make([]float64, 0, len(e)*k)
	for r := 0; r < k; r++ {
		expandedErr = append(expandedErr, e...)
	}
	// ... versus the deduplicated form: unique rows with weight 5.
	w := make([]float64, len(e))
	for i := range w {
		w[i] = k
	}

	cfg := sliceline.Config{K: 3, Alpha: 0.95, MaxLevel: 3, Sigma: 300}

	start := time.Now()
	exp, err := sliceline.RunContext(ctx, expanded, expandedErr, cfg)
	if err != nil {
		log.Fatal(err)
	}
	expTime := time.Since(start)

	start = time.Now()
	wt, err := sliceline.RunContext(ctx, ds, e, cfg, sliceline.WithWeights(w))
	if err != nil {
		log.Fatal(err)
	}
	wtTime := time.Since(start)

	fmt.Printf("expanded:     %7d rows, %v\n", expanded.NumRows(), expTime.Round(time.Millisecond))
	fmt.Printf("deduplicated: %7d rows, %v (%.1fx faster)\n",
		ds.NumRows(), wtTime.Round(time.Millisecond), float64(expTime)/float64(wtTime))

	fmt.Println("\ntop slices (expanded | weighted):")
	for i := range exp.TopK {
		fmt.Printf("#%d score %.4f size %d | score %.4f size %d  %s\n",
			i+1, exp.TopK[i].Score, exp.TopK[i].Size,
			wt.TopK[i].Score, wt.TopK[i].Size, predicates(wt.TopK[i]))
	}
}

func predicates(s sliceline.Slice) string {
	out := ""
	for i, p := range s.Predicates {
		if i > 0 {
			out += " AND "
		}
		out += p.String()
	}
	return out
}
