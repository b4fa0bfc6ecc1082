package ml

import (
	"errors"
	"fmt"
	"math"

	"sliceline/internal/matrix"
)

// Mlogit is a multinomial (softmax) logistic regression model, the paper's
// `mlogit` classifier. Class labels are the distinct values of y, recoded
// internally to 0..K-1.
type Mlogit struct {
	W       *matrix.Dense // K × l weight matrix
	B       []float64     // K intercepts
	Classes []float64     // Classes[k] is the original label of class k
	Epochs  int
}

// MlogitConfig controls training.
type MlogitConfig struct {
	Epochs   int     // full-batch gradient steps; <= 0 defaults to 100
	Step     float64 // learning rate; <= 0 defaults to 1.0
	L2       float64 // weight decay; < 0 treated as 0
	Parallel bool    // use parallel matvec kernels (on by default semantics: always parallel via matrix package)
}

func (c *MlogitConfig) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	if c.Step <= 0 {
		c.Step = 1.0
	}
	if c.L2 < 0 {
		c.L2 = 0
	}
}

// TrainMlogit fits a softmax classifier with full-batch gradient descent and
// a decaying step size. It handles any number of classes, covering the
// paper's 2-class (Adult, Criteo), 4-class (USCensus) and 7-class (Covtype)
// tasks.
func TrainMlogit(x *matrix.CSR, y []float64, cfg MlogitConfig) (*Mlogit, error) {
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("ml: %d rows vs %d labels", x.Rows(), len(y))
	}
	if x.Rows() == 0 {
		return nil, errors.New("ml: empty training set")
	}
	cfg.defaults()
	n, l := x.Rows(), x.Cols()

	// Recode labels to class indexes in order of first appearance.
	classIdx := make(map[float64]int)
	var classes []float64
	yi := make([]int, n)
	for i, v := range y {
		k, ok := classIdx[v]
		if !ok {
			k = len(classes)
			classes = append(classes, v)
			classIdx[v] = k
		}
		yi[i] = k
	}
	k := len(classes)
	if k < 2 {
		return nil, fmt.Errorf("ml: need >= 2 classes, got %d", k)
	}

	w := matrix.NewDense(k, l)
	b := make([]float64, k)
	probs := matrix.NewDense(n, k)
	inv := 1.0 / float64(n)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Scores: n×k, computed as X·Wᵀ using the sparse rows.
		matrix.ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				cols := x.RowEntries(i)
				pi := probs.Row(i)
				for c := 0; c < k; c++ {
					s := b[c]
					wc := w.Row(c)
					for _, j := range cols {
						s += wc[j]
					}
					pi[c] = s
				}
				softmaxInPlace(pi)
			}
		})
		// Gradient: Wᵀ grad = Xᵀ (P - Y) / n, accumulated per class.
		step := cfg.Step / (1 + 0.05*float64(epoch))
		grad := matrix.NewDense(k, l)
		gb := make([]float64, k)
		for i := 0; i < n; i++ {
			cols := x.RowEntries(i)
			pi := probs.Row(i)
			for c := 0; c < k; c++ {
				g := pi[c]
				if yi[i] == c {
					g -= 1
				}
				g *= inv
				gb[c] += g
				gc := grad.Row(c)
				for _, j := range cols {
					gc[j] += g
				}
			}
		}
		for c := 0; c < k; c++ {
			wc := w.Row(c)
			gc := grad.Row(c)
			for j := 0; j < l; j++ {
				wc[j] -= step * (gc[j] + cfg.L2*wc[j])
			}
			b[c] -= step * gb[c]
		}
	}
	return &Mlogit{W: w, B: b, Classes: classes, Epochs: cfg.Epochs}, nil
}

func softmaxInPlace(s []float64) {
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	sum := 0.0
	for i, v := range s {
		e := math.Exp(v - m)
		s[i] = e
		sum += e
	}
	for i := range s {
		s[i] /= sum
	}
}

// Predict returns the predicted original class label per row.
func (m *Mlogit) Predict(x *matrix.CSR) []float64 {
	n := x.Rows()
	out := make([]float64, n)
	k := m.W.Rows()
	matrix.ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cols := x.RowEntries(i)
			best, bc := math.Inf(-1), 0
			for c := 0; c < k; c++ {
				s := m.B[c]
				wc := m.W.Row(c)
				for _, j := range cols {
					s += wc[j]
				}
				if s > best {
					best, bc = s, c
				}
			}
			out[i] = m.Classes[bc]
		}
	})
	return out
}

// Accuracy returns the fraction of rows where Predict(x) equals y.
func (m *Mlogit) Accuracy(x *matrix.CSR, y []float64) float64 {
	yhat := m.Predict(x)
	correct := 0
	for i := range y {
		if y[i] == yhat[i] {
			correct++
		}
	}
	if len(y) == 0 {
		return 0
	}
	return float64(correct) / float64(len(y))
}
