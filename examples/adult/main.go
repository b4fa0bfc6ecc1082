// Adult: classification model debugging on the Adult-shaped dataset, the
// paper's running example. A multinomial logistic model is trained on the
// synthetic labels; the generator plants subgroups whose labels contradict
// the model's linear structure, so the classifier's mistakes concentrate
// exactly there — and SliceLine recovers those subgroups from the error
// vector alone.
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
	g := datasets.Adult(1)
	// Use a slice of the full dataset so the example runs in seconds.
	ds, _ := g.DS.Split(12000)
	ds.Name = "Adult"

	fmt.Printf("dataset: %d rows, %d features, %d one-hot columns\n",
		ds.NumRows(), ds.NumFeatures(), ds.OneHotWidth())

	errVec, desc, err := sliceline.TrainAndScore(ds, sliceline.TaskClassification)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("model:", desc)

	start := time.Now()
	res, err := sliceline.RunContext(context.Background(), ds, errVec, sliceline.Config{K: 5, Alpha: 0.95, MaxLevel: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sliceline: %d candidates over %d levels in %v\n",
		res.TotalCandidates(), len(res.Levels), time.Since(start).Round(time.Millisecond))

	fmt.Printf("\naverage model error: %.3f\n", res.AvgError)
	fmt.Println("top slices (where the model is worst):")
	for i, s := range res.TopK {
		fmt.Printf("#%d %s\n", i+1, s)
		fmt.Printf("    slice error rate %.3f vs overall %.3f (%.1fx)\n",
			s.AvgError, res.AvgError, s.AvgError/res.AvgError)
	}

	fmt.Println("\nper-level enumeration (pruning at work):")
	for _, ls := range res.Levels {
		fmt.Printf("  level %d: %6d candidates, %6d valid, %8d pruned\n",
			ls.Level, ls.Candidates, ls.Valid, ls.Pruned)
	}
}
