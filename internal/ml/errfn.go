// Package ml supplies the model-training substrate the paper debugs: linear
// regression (squared loss) and multinomial logistic regression
// (classification inaccuracy). Models consume the sparse one-hot matrix
// produced by package frame and emit the row-aligned error vector e >= 0 that
// SliceLine's scoring function is defined over.
package ml

import "fmt"

// SquaredLoss returns e_i = (y_i - yhat_i)^2, the paper's regression error
// function.
func SquaredLoss(y, yhat []float64) []float64 {
	if len(y) != len(yhat) {
		panic(fmt.Sprintf("ml: SquaredLoss length mismatch %d vs %d", len(y), len(yhat)))
	}
	e := make([]float64, len(y))
	for i := range y {
		d := y[i] - yhat[i]
		e[i] = d * d
	}
	return e
}

// Inaccuracy returns e_i = 1 if y_i != yhat_i else 0, the paper's
// classification error function.
func Inaccuracy(y, yhat []float64) []float64 {
	if len(y) != len(yhat) {
		panic(fmt.Sprintf("ml: Inaccuracy length mismatch %d vs %d", len(y), len(yhat)))
	}
	e := make([]float64, len(y))
	for i := range y {
		if y[i] != yhat[i] {
			e[i] = 1
		}
	}
	return e
}

// AbsLoss returns e_i = |y_i - yhat_i|, an additional algorithm-specific
// loss usable with SliceLine (any non-negative error vector is valid input).
func AbsLoss(y, yhat []float64) []float64 {
	if len(y) != len(yhat) {
		panic(fmt.Sprintf("ml: AbsLoss length mismatch %d vs %d", len(y), len(yhat)))
	}
	e := make([]float64, len(y))
	for i := range y {
		d := y[i] - yhat[i]
		if d < 0 {
			d = -d
		}
		e[i] = d
	}
	return e
}
