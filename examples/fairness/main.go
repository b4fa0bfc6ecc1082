// Fairness: slice finding for bias instead of accuracy — one of the
// paper's proposed future-work directions (Section 7). The error vector
// passed to SliceLine is not a loss: it marks false positives, so the top
// slices are the subgroups with the most disproportionate false-positive
// rates (disparate mistreatment). Any non-negative per-row "badness" signal
// works the same way.
package main

import (
	"context"
	"fmt"
	"log"

	"sliceline"
	"sliceline/datasets"
	"sliceline/internal/frame"
	"sliceline/internal/ml"
)

func main() {
	g := datasets.Adult(7)
	ds, _ := g.DS.Split(12000)
	ds.Name = "Adult"

	enc, err := frame.OneHot(ds)
	if err != nil {
		log.Fatal(err)
	}
	model, err := ml.TrainMlogit(enc.X, ds.Y, ml.MlogitConfig{})
	if err != nil {
		log.Fatal(err)
	}
	yhat := model.Predict(enc.X)

	// False-positive indicator: the model predicted the "favorable" class 1
	// although the true label is 0.
	fp := make([]float64, len(yhat))
	nFP := 0
	for i := range yhat {
		if yhat[i] == 1 && ds.Y[i] == 0 {
			fp[i] = 1
			nFP++
		}
	}
	fmt.Printf("model: overall false-positive fraction %.3f (%d rows)\n",
		float64(nFP)/float64(len(fp)), nFP)

	res, err := sliceline.RunContext(context.Background(), ds, fp, sliceline.Config{K: 5, Alpha: 0.9, MaxLevel: 3})
	if err != nil {
		log.Fatal(err)
	}
	if len(res.TopK) == 0 {
		fmt.Println("no subgroup has a disproportionate false-positive rate")
		return
	}
	fmt.Println("\nsubgroups with disproportionate false-positive rates:")
	for i, s := range res.TopK {
		fmt.Printf("#%d %s\n", i+1, s)
		fmt.Printf("    FP rate %.3f vs overall %.3f (%.1fx, %d individuals)\n",
			s.AvgError, res.AvgError, s.AvgError/res.AvgError, s.Size)
	}
	// Quantify the worst subgroup against its complement with the standard
	// fairness criteria.
	worst := res.TopK[0]
	rows, err := sliceline.SliceRows(ds, worst)
	if err != nil {
		log.Fatal(err)
	}
	member := make([]bool, ds.NumRows())
	for _, r := range rows {
		member[r] = true
	}
	rest := make([]bool, ds.NumRows())
	for i := range rest {
		rest[i] = !member[i]
	}
	gIn, err := ml.BinaryGroupRates(ds.Y, yhat, member, 1)
	if err != nil {
		log.Fatal(err)
	}
	gOut, err := ml.BinaryGroupRates(ds.Y, yhat, rest, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfairness criteria for the worst subgroup vs. the rest:\n")
	fmt.Printf("  selection rate: %.3f vs %.3f (demographic parity gap %.3f)\n",
		gIn.PositiveRate, gOut.PositiveRate, ml.DemographicParityGap(gIn, gOut))
	fmt.Printf("  TPR %.3f/%.3f, FPR %.3f/%.3f (equalized odds gap %.3f)\n",
		gIn.TPR, gOut.TPR, gIn.FPR, gOut.FPR, ml.EqualizedOddsGap(gIn, gOut))

	fmt.Println("\nEach subgroup is a candidate for fairness interventions:")
	fmt.Println("re-weighting, threshold adjustment, or targeted data collection.")
}
