// Quickstart: the smallest end-to-end SliceLine run. A tiny CSV is encoded,
// a model is trained on it, and the top problematic slices are printed.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"sliceline"
)

// A toy loan dataset: the model will struggle on young applicants with low
// income because their label pattern contradicts the global trend.
const csvData = `age,income,approved
young,low,0
young,low,1
young,low,1
young,low,1
young,high,1
young,high,1
middle,low,0
middle,low,0
middle,high,1
middle,high,1
old,low,0
old,low,0
old,high,1
old,high,1
young,low,1
young,low,0
young,low,1
middle,high,1
old,high,1
old,low,0
`

func main() {
	// 1. Load and encode the data (categories are recoded to integer codes;
	//    numeric columns would be binned).
	ds, err := sliceline.DatasetFromCSV(strings.NewReader(csvData), "approved", 10)
	if err != nil {
		log.Fatal(err)
	}
	ds.Name = "loans"

	// 2. Train a classifier and derive the per-row error vector.
	errVec, desc, err := sliceline.TrainAndScore(ds, sliceline.TaskClassification)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("model:", desc)

	// 3. Find the top slices where the model is worst. Sigma is tiny here
	//    because the dataset is tiny; production use keeps the default
	//    max(32, n/100).
	res, err := sliceline.RunContext(context.Background(), ds, errVec, sliceline.Config{K: 3, Sigma: 3, Alpha: 0.9})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("average error %.3f over %d rows\n", res.AvgError, res.N)
	if len(res.TopK) == 0 {
		fmt.Println("no problematic slices found")
		return
	}
	for i, s := range res.TopK {
		fmt.Printf("#%d %s\n", i+1, s)
	}
}
