package tree

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/dataset"
)

// Forest is a bagged random forest ([8]).
type Forest struct {
	Trees      []*Tree
	Regression bool
}

// ForestConfig controls forest induction.
type ForestConfig struct {
	NTrees      int // default 50
	MaxDepth    int // default 12
	MinLeaf     int // default 1
	MaxFeatures int // default sqrt(dim) for classification, dim/3 for regression
	Regression  bool
}

// FitForest grows a random forest with bootstrap sampling and per-split
// random feature subsets. Inputs must be finite, as for Fit.
func FitForest(rng *rand.Rand, d *dataset.Dataset, cfg ForestConfig) (*Forest, error) {
	if d.Len() == 0 {
		return nil, errors.New("tree: empty dataset")
	}
	if cfg.NTrees <= 0 {
		cfg.NTrees = 50
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	if cfg.MaxFeatures <= 0 {
		if cfg.Regression {
			cfg.MaxFeatures = (d.Dim() + 2) / 3
		} else {
			cfg.MaxFeatures = int(math.Sqrt(float64(d.Dim())) + 0.5)
		}
		if cfg.MaxFeatures < 1 {
			cfg.MaxFeatures = 1
		}
	}
	g, err := newGrower(d, cfg.Regression)
	if err != nil {
		return nil, err
	}
	// The parent's presorted order is the only sort. A bootstrap tree's
	// rows are parent rows, each repeated once per draw, so its order is
	// one counting pass over the parent's: copies are indistinguishable
	// and sit together, in the place their parent row had.
	sorted := g.order
	g.order = make([][]int32, len(sorted))
	n := d.Len()
	for j := range g.order {
		g.order[j] = make([]int32, n)
	}
	boot := make([]int32, n)
	draws := make([]int32, n)
	f := &Forest{Regression: cfg.Regression}
	for t := 0; t < cfg.NTrees; t++ {
		clear(draws)
		for i := range boot {
			r := rng.Intn(n)
			boot[i] = int32(r)
			draws[r]++
		}
		for j, src := range sorted {
			dst, w := g.order[j], 0
			for _, r := range src {
				for k := draws[r]; k > 0; k-- {
					dst[w] = r
					w++
				}
			}
		}
		f.Trees = append(f.Trees, g.fit(Config{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     cfg.MinLeaf,
			Regression:  cfg.Regression,
			MaxFeatures: cfg.MaxFeatures,
			seedFeats:   rng.Perm,
		}, boot))
	}
	return f, nil
}

// Predict aggregates tree outputs: majority vote (classification) or mean
// (regression).
func (f *Forest) Predict(x []float64) float64 {
	if f.Regression {
		s := 0.0
		for _, t := range f.Trees {
			s += t.Predict(x)
		}
		return s / float64(len(f.Trees))
	}
	votes := map[int]int{}
	for _, t := range f.Trees {
		votes[int(t.Predict(x))]++
	}
	best, bestN := 0, -1
	for c, n := range votes {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return float64(best)
}

// PredictAll predicts every row of d.
func (f *Forest) PredictAll(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = f.Predict(d.Row(i))
	}
	return out
}

// FeatureImportance averages per-tree importances.
func (f *Forest) FeatureImportance(dim int) []float64 {
	imp := make([]float64, dim)
	for _, t := range f.Trees {
		ti := t.FeatureImportance(dim)
		for i := range imp {
			imp[i] += ti[i]
		}
	}
	for i := range imp {
		imp[i] /= float64(len(f.Trees))
	}
	return imp
}
