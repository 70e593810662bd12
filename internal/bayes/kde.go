package bayes

import (
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// KDE is a kernel-density-estimate classifier — the paper's Section 2.1
// note that class-density estimation "can be more general than assuming a
// normal distribution": each class density is a Parzen window estimate
// with a Gaussian product kernel, and prediction follows the same Bayes
// log-ratio as Discriminant.
type KDE struct {
	Classes   []int
	prior     []float64 // log priors
	samples   [][][]float64
	bandwidth []float64 // per-feature bandwidth (shared across classes)
}

// FitKDE stores per-class samples and picks per-feature bandwidths with
// Scott's rule (h_j = sigma_j * n^(-1/(d+4))); bandwidth <= 0 selects the
// rule, a positive value overrides it for every feature.
func FitKDE(d *dataset.Dataset, bandwidth float64) (*KDE, error) {
	if d.Len() == 0 {
		return nil, errors.New("bayes: empty dataset")
	}
	classes := d.Classes()
	m := &KDE{Classes: classes}
	m.prior = make([]float64, len(classes))
	m.samples = make([][][]float64, len(classes))
	for ci, c := range classes {
		for i, y := range d.Y {
			if int(y) == c {
				row := make([]float64, d.Dim())
				copy(row, d.Row(i))
				m.samples[ci] = append(m.samples[ci], row)
			}
		}
		m.prior[ci] = math.Log(float64(len(m.samples[ci])) / float64(d.Len()))
	}
	m.bandwidth = make([]float64, d.Dim())
	factor := math.Pow(float64(d.Len()), -1.0/float64(d.Dim()+4))
	col := make([]float64, d.Len()) // one scratch column reused across features
	for j := 0; j < d.Dim(); j++ {
		if bandwidth > 0 {
			m.bandwidth[j] = bandwidth
			continue
		}
		d.ColInto(j, col)
		sd := stats.StdDev(col)
		if sd < 1e-9 {
			sd = 1e-9
		}
		m.bandwidth[j] = sd * factor
	}
	return m, nil
}

// logDensity returns log( prior * KDE(x | class ci) ).
func (m *KDE) logDensity(ci int, x []float64) float64 {
	n := len(m.samples[ci])
	if n == 0 {
		return math.Inf(-1)
	}
	// log-sum-exp over sample kernels for numerical stability.
	maxLog := math.Inf(-1)
	logs := make([]float64, n)
	for s, xi := range m.samples[ci] {
		lp := 0.0
		for j, v := range x {
			z := (v - xi[j]) / m.bandwidth[j]
			lp += -0.5*z*z - math.Log(m.bandwidth[j]) - 0.5*math.Log(2*math.Pi)
		}
		logs[s] = lp
		if lp > maxLog {
			maxLog = lp
		}
	}
	sum := 0.0
	for _, lp := range logs {
		sum += math.Exp(lp - maxLog)
	}
	return m.prior[ci] + maxLog + math.Log(sum/float64(n))
}

// Predict returns the MAP class under the KDE densities.
func (m *KDE) Predict(x []float64) float64 {
	best, bestV := 0, math.Inf(-1)
	for ci := range m.Classes {
		if v := m.logDensity(ci, x); v > bestV {
			best, bestV = ci, v
		}
	}
	return float64(m.Classes[best])
}

// Density returns the (non-log) estimated density of x under class c's
// KDE, for novelty-detection style use.
func (m *KDE) Density(c int, x []float64) float64 {
	for ci, cc := range m.Classes {
		if cc == c {
			return math.Exp(m.logDensity(ci, x) - m.prior[ci])
		}
	}
	return 0
}
