// Package svm implements C-SVC support vector classification trained with
// Sequential Minimal Optimization — the stand-in for LIBSVM that the
// paper uses as its SVM baseline (svm_type = C-SVC, kernel_type = RBF).
//
// The solver is the standard maximal-violating-pair SMO on the dual
//
//	min  1/2 a'Qa - e'a   s.t.  0 <= a_i <= C_i,  y'a = 0,
//
// with per-class C (class weights) so the heavily imbalanced disk data
// can be rebalanced the same way the paper tunes its SVM. Decision values
// are exposed so the operating point can be tuned to a FAR budget.
package svm

import (
	"fmt"
	"math"
)

// Kernel computes k(x, z).
type Kernel interface {
	Eval(x, z []float64) float64
	String() string
}

// RBF is the radial basis function kernel exp(-gamma*||x-z||^2).
type RBF struct{ Gamma float64 }

// Eval implements Kernel.
func (k RBF) Eval(x, z []float64) float64 {
	var d2 float64
	for i := range x {
		d := x[i] - z[i]
		d2 += d * d
	}
	return math.Exp(-k.Gamma * d2)
}

func (k RBF) String() string { return fmt.Sprintf("rbf(gamma=%g)", k.Gamma) }

// Linear is the dot-product kernel.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(x, z []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * z[i]
	}
	return s
}

func (Linear) String() string { return "linear" }

// Config controls training.
type Config struct {
	// C is the soft-margin penalty (default 1).
	C float64
	// Kernel defaults to RBF with gamma = 1/dim.
	Kernel Kernel
	// ClassWeight scales C per class (index 0 = negative, 1 = positive);
	// zero values default to 1. Upweighting the positive class is the
	// SVM's imbalance knob.
	ClassWeight [2]float64
	// Tol is the KKT violation tolerance (default 1e-3, LIBSVM's
	// default).
	Tol float64
	// MaxIter caps SMO iterations (default 100 * n, at least 10000).
	MaxIter int
}

func (c Config) withDefaults(n, dim int) Config {
	if c.C <= 0 {
		c.C = 1
	}
	if c.Kernel == nil {
		c.Kernel = RBF{Gamma: 1 / float64(dim)}
	}
	if c.ClassWeight[0] == 0 {
		c.ClassWeight[0] = 1
	}
	if c.ClassWeight[1] == 0 {
		c.ClassWeight[1] = 1
	}
	if c.Tol <= 0 {
		c.Tol = 1e-3
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 100 * n
		if c.MaxIter < 10000 {
			c.MaxIter = 10000
		}
	}
	return c
}

// Model is a trained C-SVC.
type Model struct {
	svX    [][]float64 // support vectors
	svCoef []float64   // alpha_i * y_i
	b      float64
	kernel Kernel
	iters  int
	nSV    int
}

// Train fits a C-SVC on X and binary labels y (0/1). It panics on empty
// or one-class input (the caller must ensure both classes are present).
func Train(X [][]float64, y []int, cfg Config) *Model {
	n := len(X)
	if n == 0 || n != len(y) {
		panic(fmt.Sprintf("svm: bad training set (%d rows, %d labels)", n, len(y)))
	}
	cfg = cfg.withDefaults(n, len(X[0]))
	var nPos int
	for _, v := range y {
		if v == 1 {
			nPos++
		}
	}
	if nPos == 0 || nPos == n {
		panic("svm: training set contains a single class")
	}

	// Signed labels and per-sample C.
	ys := make([]float64, n)
	cUp := make([]float64, n)
	for i, v := range y {
		if v == 1 {
			ys[i] = 1
			cUp[i] = cfg.C * cfg.ClassWeight[1]
		} else {
			ys[i] = -1
			cUp[i] = cfg.C * cfg.ClassWeight[0]
		}
	}

	// Full kernel matrix: the paper's training sets are downsampled to
	// hundreds-to-thousands of rows, so O(n^2) memory is acceptable and
	// much faster than recomputation.
	K := make([][]float64, n)
	for i := range K {
		K[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := cfg.Kernel.Eval(X[i], X[j])
			K[i][j] = v
			K[j][i] = v
		}
	}
	qij := func(i, j int) float64 { return ys[i] * ys[j] * K[i][j] }

	alpha := make([]float64, n)
	grad := make([]float64, n) // G_i = (Q a)_i - 1
	for i := range grad {
		grad[i] = -1
	}

	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		// Maximal violating pair (WSS1).
		i, j := -1, -1
		gMax, gMin := math.Inf(-1), math.Inf(1)
		for t := 0; t < n; t++ {
			if (ys[t] > 0 && alpha[t] < cUp[t]) || (ys[t] < 0 && alpha[t] > 0) {
				if v := -ys[t] * grad[t]; v > gMax {
					gMax, i = v, t
				}
			}
			if (ys[t] > 0 && alpha[t] > 0) || (ys[t] < 0 && alpha[t] < cUp[t]) {
				if v := -ys[t] * grad[t]; v < gMin {
					gMin, j = v, t
				}
			}
		}
		if i < 0 || j < 0 || gMax-gMin < cfg.Tol {
			break
		}

		// Analytic two-variable update.
		eta := K[i][i] + K[j][j] - 2*K[i][j]
		if eta <= 0 {
			eta = 1e-12
		}
		delta := (gMax - gMin) / eta // step along the constraint
		oldAi, oldAj := alpha[i], alpha[j]
		// Move a_i by y_i*delta and a_j by -y_j*delta (keeping y'a = 0),
		// then clip to the box.
		ai := oldAi + ys[i]*delta
		if ai > cUp[i] {
			ai = cUp[i]
		} else if ai < 0 {
			ai = 0
		}
		delta = ys[i] * (ai - oldAi)
		aj := oldAj - ys[j]*delta
		if aj > cUp[j] {
			aj = cUp[j]
		} else if aj < 0 {
			aj = 0
		}
		// Re-derive the actual step from the j-side clip.
		delta = -ys[j] * (aj - oldAj)
		ai = oldAi + ys[i]*delta

		dAi, dAj := ai-oldAi, aj-oldAj
		if dAi == 0 && dAj == 0 {
			break // numerical stall
		}
		alpha[i], alpha[j] = ai, aj
		for t := 0; t < n; t++ {
			grad[t] += qij(t, i)*dAi + qij(t, j)*dAj
		}
	}

	// Bias: average -y_i G_i over free support vectors, else midpoint of
	// the bound-derived range.
	var sum float64
	var free int
	for t := 0; t < n; t++ {
		if alpha[t] > 0 && alpha[t] < cUp[t] {
			sum += -ys[t] * grad[t]
			free++
		}
	}
	var b float64
	if free > 0 {
		b = sum / float64(free)
	} else {
		ub, lb := math.Inf(1), math.Inf(-1)
		for t := 0; t < n; t++ {
			v := -ys[t] * grad[t]
			if (ys[t] > 0 && alpha[t] == 0) || (ys[t] < 0 && alpha[t] == cUp[t]) {
				if v < ub {
					ub = v
				}
			} else {
				if v > lb {
					lb = v
				}
			}
		}
		b = (ub + lb) / 2
	}

	m := &Model{b: b, kernel: cfg.Kernel, iters: iter}
	for t := 0; t < n; t++ {
		if alpha[t] > 0 {
			m.svX = append(m.svX, X[t])
			m.svCoef = append(m.svCoef, alpha[t]*ys[t])
			m.nSV++
		}
	}
	return m
}

// Decision returns the signed decision value f(x) = sum_i coef_i k(x_i,x) + b.
// Positive means the positive class.
func (m *Model) Decision(x []float64) float64 {
	var s float64
	for i, sv := range m.svX {
		s += m.svCoef[i] * m.kernel.Eval(sv, x)
	}
	return s + m.b
}

// Predict returns the class decision with an additional decision-value
// offset: the sample is positive iff Decision(x) >= offset. Offset 0 is
// the plain SVM decision; raising it trades FDR for FAR.
func (m *Model) Predict(x []float64, offset float64) bool {
	return m.Decision(x) >= offset
}

// NumSV returns the support vector count.
func (m *Model) NumSV() int { return m.nSV }

// Iterations returns the SMO iterations performed.
func (m *Model) Iterations() int { return m.iters }
