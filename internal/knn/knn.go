// Package knn implements k-nearest-neighbor classification and regression —
// the first of the four basic learning ideas in Section 2.1 of the paper:
// infer the label of a point from the majority (or average) of the points
// surrounding it.
package knn

import (
	"errors"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/linalg"
)

// Distance measures dissimilarity between two samples.
type Distance func(a, b []float64) float64

// Euclidean is the default distance.
func Euclidean(a, b []float64) float64 { return linalg.Dist(a, b) }

// Manhattan is the L1 distance.
func Manhattan(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Chebyshev is the L∞ distance.
func Chebyshev(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Model is a fitted (memorized) k-NN model.
type Model struct {
	K        int
	Dist     Distance
	Weighted bool // distance-weighted votes/averages
	train    *dataset.Dataset
}

// Fit memorizes the training set.
func Fit(d *dataset.Dataset, k int, dist Distance) (*Model, error) {
	if d.Len() == 0 {
		return nil, errors.New("knn: empty dataset")
	}
	if k < 1 {
		return nil, errors.New("knn: k must be >= 1")
	}
	if k > d.Len() {
		k = d.Len()
	}
	if dist == nil {
		dist = Euclidean
	}
	return &Model{K: k, Dist: dist, train: d}, nil
}

type neighbor struct {
	idx int
	d   float64
}

func (m *Model) neighbors(x []float64) []neighbor {
	ns := make([]neighbor, m.train.Len())
	for i := 0; i < m.train.Len(); i++ {
		ns[i] = neighbor{i, m.Dist(x, m.train.Row(i))}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].d < ns[j].d })
	return ns[:m.K]
}

// Classify returns the majority class among the k nearest neighbors
// (distance-weighted when Weighted is set). Ties break toward the smaller
// class label for determinism.
func (m *Model) Classify(x []float64) float64 {
	votes := map[int]float64{}
	for _, n := range m.neighbors(x) {
		w := 1.0
		if m.Weighted {
			w = 1.0 / (n.d + 1e-9)
		}
		votes[int(m.train.Y[n.idx])] += w
	}
	bestC, bestV := 0, math.Inf(-1)
	for c, v := range votes {
		if v > bestV || (v == bestV && c < bestC) {
			bestC, bestV = c, v
		}
	}
	return float64(bestC)
}

// Regress returns the (optionally distance-weighted) mean label of the k
// nearest neighbors.
func (m *Model) Regress(x []float64) float64 {
	num, den := 0.0, 0.0
	for _, n := range m.neighbors(x) {
		w := 1.0
		if m.Weighted {
			w = 1.0 / (n.d + 1e-9)
		}
		num += w * m.train.Y[n.idx]
		den += w
	}
	return num / den
}
