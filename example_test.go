package sliceline_test

import (
	"context"
	"fmt"
	"strings"

	"sliceline"
)

const churnCSV = `city,plan,churned
north,basic,0
north,basic,0
north,premium,0
south,basic,1
south,basic,1
south,basic,1
south,premium,0
north,premium,0
south,basic,1
north,basic,0
`

// ExampleRunContext demonstrates the full debugging loop on an inline CSV:
// encode, score with a hand-provided error vector, enumerate, and print the
// worst slice.
func ExampleRunContext() {
	ds, err := sliceline.DatasetFromCSV(strings.NewReader(churnCSV), "churned", 10)
	if err != nil {
		panic(err)
	}
	// Suppose a model mispredicts exactly the south/basic customers: the
	// error vector marks those rows.
	e := make([]float64, ds.NumRows())
	for i := range e {
		if ds.Y[i] == 1 {
			e[i] = 1
		}
	}
	res, err := sliceline.RunContext(context.Background(), ds, e, sliceline.Config{K: 1, Sigma: 2, Alpha: 0.9})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.TopK[0])
	// Output: [city=south AND plan=basic] score=1.2000 size=4 avgErr=1.0000
}

// ExampleRunDiffContext compares two models over the same rows: the new
// model fixes the south/basic customers but starts failing the premium
// ones. Regressions carry DiffSign +1, improvements -1; K applies to each
// direction.
func ExampleRunDiffContext() {
	ds, err := sliceline.DatasetFromCSV(strings.NewReader(churnCSV), "churned", 10)
	if err != nil {
		panic(err)
	}
	eBase := make([]float64, ds.NumRows())
	eNew := make([]float64, ds.NumRows())
	for i := range eBase {
		if ds.Y[i] == 1 {
			eBase[i] = 1 // the baseline misses every churner
		}
	}
	for _, i := range []int{2, 6, 7} {
		eNew[i] = 1 // the new model misses the premium customers instead
	}
	res, err := sliceline.RunDiffContext(context.Background(), ds, eBase, eNew,
		sliceline.Config{K: 1, Sigma: 2, Alpha: 0.9})
	if err != nil {
		panic(err)
	}
	for _, s := range res.TopK {
		fmt.Printf("%+d %v\n", s.DiffSign, s)
	}
	// Output:
	// +1 [plan=premium] score=1.8667 size=3 avgErr=1.0000
	// -1 [city=south AND plan=basic] score=1.2000 size=4 avgErr=1.0000
}
