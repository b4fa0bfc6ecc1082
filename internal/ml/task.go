package ml

import (
	"fmt"

	"sliceline/internal/matrix"
)

// Tasks accepted by TrainAndScore.
const (
	TaskClass = "class" // multinomial logistic regression, scored by 0/1 inaccuracy
	TaskReg   = "reg"   // ridge linear regression, scored by squared loss
)

// TrainAndScore fits the model a task names on the design matrix x and labels
// y, and returns the per-row error vector slice finding consumes plus a short
// description of the fitted model. A task other than TaskClass or TaskReg is
// an error.
func TrainAndScore(x *matrix.CSR, y []float64, task string) ([]float64, string, error) {
	if y == nil {
		return nil, "", fmt.Errorf("ml: no labels to train on")
	}
	switch task {
	case TaskReg:
		m, err := TrainLinReg(x, y, LinRegConfig{})
		if err != nil {
			return nil, "", err
		}
		return SquaredLoss(y, m.Predict(x)), fmt.Sprintf("linear regression (%d weights, %d CG iterations)", len(m.W), m.Iters), nil
	case TaskClass:
		m, err := TrainMlogit(x, y, MlogitConfig{})
		if err != nil {
			return nil, "", err
		}
		return Inaccuracy(y, m.Predict(x)), fmt.Sprintf("mlogit (%d classes, accuracy %.3f)", len(m.Classes), m.Accuracy(x, y)), nil
	default:
		return nil, "", fmt.Errorf("ml: unknown task %q (want %s or %s)", task, TaskClass, TaskReg)
	}
}
