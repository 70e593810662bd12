// Package bayes implements the probability-based learners of Section 2.1 of
// the paper: Gaussian naive Bayes (idea 4 — the Bayes rule with mutually
// independent features) and Gaussian discriminant analysis (idea 3 —
// density estimation per class with the log-ratio decision function of the
// paper's Equation 1), in both linear (shared covariance, LDA) and
// quadratic (per-class covariance, QDA) forms.
package bayes

import (
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// NaiveBayes is a fitted Gaussian naive Bayes classifier.
type NaiveBayes struct {
	Classes []int
	Prior   []float64   // log prior per class
	Mean    [][]float64 // per class, per feature
	Std     [][]float64 // per class, per feature
}

// FitNaiveBayes estimates per-class feature means/stds and class priors.
func FitNaiveBayes(d *dataset.Dataset) (*NaiveBayes, error) {
	if d.Len() == 0 {
		return nil, errors.New("bayes: empty dataset")
	}
	classes := d.Classes()
	nb := &NaiveBayes{
		Classes: classes,
		Prior:   make([]float64, len(classes)),
		Mean:    make([][]float64, len(classes)),
		Std:     make([][]float64, len(classes)),
	}
	for ci, c := range classes {
		var idx []int
		for i, v := range d.Y {
			if int(v) == c {
				idx = append(idx, i)
			}
		}
		sub := d.Subset(idx)
		nb.Prior[ci] = math.Log(float64(len(idx)) / float64(d.Len()))
		nb.Mean[ci] = make([]float64, d.Dim())
		nb.Std[ci] = make([]float64, d.Dim())
		col := make([]float64, sub.Len())
		for j := 0; j < d.Dim(); j++ {
			sub.X.ColInto(j, col)
			nb.Mean[ci][j] = stats.Mean(col)
			s := stats.StdDev(col)
			if s < 1e-9 {
				s = 1e-9
			}
			nb.Std[ci][j] = s
		}
	}
	return nb, nil
}

// LogPosterior returns the unnormalized log posterior of each class.
func (nb *NaiveBayes) LogPosterior(x []float64) []float64 {
	out := make([]float64, len(nb.Classes))
	for ci := range nb.Classes {
		lp := nb.Prior[ci]
		for j, v := range x {
			lp += stats.NormalLogPDF(v, nb.Mean[ci][j], nb.Std[ci][j])
		}
		out[ci] = lp
	}
	return out
}

// Predict returns the MAP class.
func (nb *NaiveBayes) Predict(x []float64) float64 {
	lp := nb.LogPosterior(x)
	return float64(nb.Classes[stats.ArgMax(lp)])
}

// Discriminant is a fitted Gaussian discriminant-analysis classifier.
// When Quadratic is false a pooled covariance is used (LDA); otherwise each
// class keeps its own covariance (QDA). The decision follows paper Eq. 1:
// D(x) = log P(x|N(mu1,S1)) - log P(x|N(mu2,S2)) (+ log prior ratio).
type Discriminant struct {
	Classes   []int
	Quadratic bool
	prior     []float64 // log priors
	mean      [][]float64
	invCov    []*linalg.Matrix // per class (QDA) or length 1 (LDA)
	logDet    []float64
}

// FitDiscriminant estimates the Gaussian class densities.
func FitDiscriminant(d *dataset.Dataset, quadratic bool) (*Discriminant, error) {
	if d.Len() == 0 {
		return nil, errors.New("bayes: empty dataset")
	}
	classes := d.Classes()
	p := d.Dim()
	m := &Discriminant{Classes: classes, Quadratic: quadratic}
	m.prior = make([]float64, len(classes))
	m.mean = make([][]float64, len(classes))

	covs := make([]*linalg.Matrix, len(classes))
	counts := make([]int, len(classes))
	for ci, c := range classes {
		var idx []int
		for i, v := range d.Y {
			if int(v) == c {
				idx = append(idx, i)
			}
		}
		counts[ci] = len(idx)
		m.prior[ci] = math.Log(float64(len(idx)) / float64(d.Len()))
		mean := make([]float64, p)
		for _, i := range idx {
			linalg.AXPY(1, d.Row(i), mean)
		}
		linalg.ScaleVec(1/float64(len(idx)), mean)
		m.mean[ci] = mean
		cov := linalg.NewMatrix(p, p)
		for _, i := range idx {
			dx := linalg.SubVec(d.Row(i), mean)
			for a := 0; a < p; a++ {
				for b := 0; b < p; b++ {
					cov.Set(a, b, cov.At(a, b)+dx[a]*dx[b])
				}
			}
		}
		denom := float64(len(idx) - 1)
		if denom < 1 {
			denom = 1
		}
		covs[ci] = cov.Scale(1 / denom).AddDiag(1e-6)
	}

	if quadratic {
		m.invCov = make([]*linalg.Matrix, len(classes))
		m.logDet = make([]float64, len(classes))
		for ci := range classes {
			l, err := linalg.Cholesky(covs[ci])
			if err != nil {
				return nil, err
			}
			m.logDet[ci] = linalg.CholLogDet(l)
			inv, err := linalg.Inverse(covs[ci])
			if err != nil {
				return nil, err
			}
			m.invCov[ci] = inv
		}
		return m, nil
	}

	// LDA: pool covariances weighted by class counts.
	pooled := linalg.NewMatrix(p, p)
	total := 0
	for ci := range classes {
		w := float64(counts[ci] - 1)
		if w < 1 {
			w = 1
		}
		pooled = pooled.Add(covs[ci].Scale(w))
		total += counts[ci]
	}
	pooled = pooled.Scale(1 / float64(total-len(classes)))
	pooled.AddDiag(1e-6)
	l, err := linalg.Cholesky(pooled)
	if err != nil {
		return nil, err
	}
	inv, err := linalg.Inverse(pooled)
	if err != nil {
		return nil, err
	}
	m.invCov = []*linalg.Matrix{inv}
	m.logDet = []float64{linalg.CholLogDet(l)}
	return m, nil
}

// logDensity returns log N(x; mu_ci, Sigma_ci) + log prior_ci.
func (m *Discriminant) logDensity(ci int, x []float64) float64 {
	inv := m.invCov[0]
	ld := m.logDet[0]
	if m.Quadratic {
		inv = m.invCov[ci]
		ld = m.logDet[ci]
	}
	dx := linalg.SubVec(x, m.mean[ci])
	q := linalg.Dot(dx, inv.MulVec(dx))
	p := float64(len(x))
	return m.prior[ci] - 0.5*(q+ld+p*math.Log(2*math.Pi))
}

// Decision returns the paper's Eq. 1 log-ratio for binary problems:
// positive means class Classes[0] is more likely.
func (m *Discriminant) Decision(x []float64) float64 {
	if len(m.Classes) != 2 {
		panic("bayes: Decision requires a binary problem")
	}
	return m.logDensity(0, x) - m.logDensity(1, x)
}

// Predict returns the MAP class.
func (m *Discriminant) Predict(x []float64) float64 {
	best, bestV := 0, math.Inf(-1)
	for ci := range m.Classes {
		if v := m.logDensity(ci, x); v > bestV {
			best, bestV = ci, v
		}
	}
	return float64(m.Classes[best])
}
