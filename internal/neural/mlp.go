// Package neural implements a multilayer perceptron — the paper's example
// of a model-based learner with a predefined structure of limited
// complexity (Section 2.1/2.3 idea 1: fix the model family, minimize
// training error). Hidden-layer width is the complexity knob for the
// Figure 5 overfitting sweep.
package neural

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/dataset"
)

// MLP is a fully connected network with tanh hidden units and either a
// linear output (regression) or a sigmoid output (binary classification).
type MLP struct {
	Sizes      []int // layer sizes, input..output
	W          [][][]float64
	Bias       [][]float64
	Regression bool
}

// Config controls training.
type Config struct {
	Hidden       []int   // hidden layer sizes, default [8]
	LearningRate float64 // default 0.05
	Momentum     float64 // default 0.9
	Epochs       int     // default 300
	Batch        int     // minibatch size, default 16
	Regression   bool    // linear output + squared loss
	L2           float64 // weight decay
	Seed         int64
}

// Fit trains the network with SGD + momentum. Classification labels must
// be 0/1.
func Fit(d *dataset.Dataset, cfg Config) (*MLP, error) {
	if d.Len() == 0 {
		return nil, errors.New("neural: empty dataset")
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{8}
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.05
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		cfg.Momentum = 0.9
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 300
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	if !cfg.Regression {
		for _, v := range d.Y {
			if v != 0 && v != 1 {
				return nil, errors.New("neural: classification labels must be 0/1")
			}
		}
	}

	sizes := append([]int{d.Dim()}, cfg.Hidden...)
	sizes = append(sizes, 1)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	m := &MLP{Sizes: sizes, Regression: cfg.Regression}
	nl := len(sizes) - 1
	m.W = make([][][]float64, nl)
	m.Bias = make([][]float64, nl)
	vW := make([][][]float64, nl)
	vB := make([][]float64, nl)
	for l := 0; l < nl; l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2.0 / float64(in))
		m.W[l] = make([][]float64, out)
		vW[l] = make([][]float64, out)
		m.Bias[l] = make([]float64, out)
		vB[l] = make([]float64, out)
		for o := 0; o < out; o++ {
			m.W[l][o] = make([]float64, in)
			vW[l][o] = make([]float64, in)
			for i := range m.W[l][o] {
				m.W[l][o][i] = scale * rng.NormFloat64()
			}
		}
	}

	n := d.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	acts := make([][]float64, len(sizes))
	deltas := make([][]float64, nl)
	for l := 0; l < nl; l++ {
		deltas[l] = make([]float64, sizes[l+1])
	}

	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += cfg.Batch {
			end := start + cfg.Batch
			if end > n {
				end = n
			}
			// Accumulate gradients over the batch by applying per-sample
			// updates into momentum buffers (SGD with momentum).
			for _, idx := range order[start:end] {
				x := d.Row(idx)
				y := d.Y[idx]
				m.forward(x, acts)
				// Output delta.
				out := acts[len(acts)-1][0]
				var dOut float64
				if cfg.Regression {
					dOut = out - y
				} else {
					dOut = out - y // sigmoid + cross-entropy gradient
				}
				deltas[nl-1][0] = dOut
				// Backpropagate.
				for l := nl - 2; l >= 0; l-- {
					for i := 0; i < sizes[l+1]; i++ {
						s := 0.0
						for o := 0; o < sizes[l+2]; o++ {
							s += m.W[l+1][o][i] * deltas[l+1][o]
						}
						a := acts[l+1][i]
						deltas[l][i] = s * (1 - a*a) // tanh'
					}
				}
				// Update with momentum.
				lr := cfg.LearningRate
				for l := 0; l < nl; l++ {
					in := acts[l]
					for o := 0; o < sizes[l+1]; o++ {
						dl := deltas[l][o]
						for i := range in {
							g := dl*in[i] + cfg.L2*m.W[l][o][i]
							vW[l][o][i] = cfg.Momentum*vW[l][o][i] - lr*g
							m.W[l][o][i] += vW[l][o][i]
						}
						vB[l][o] = cfg.Momentum*vB[l][o] - lr*dl
						m.Bias[l][o] += vB[l][o]
					}
				}
			}
		}
	}
	return m, nil
}

// forward fills acts with layer activations; acts[0] aliases x.
func (m *MLP) forward(x []float64, acts [][]float64) {
	acts[0] = x
	nl := len(m.Sizes) - 1
	for l := 0; l < nl; l++ {
		if acts[l+1] == nil {
			acts[l+1] = make([]float64, m.Sizes[l+1])
		}
		for o := 0; o < m.Sizes[l+1]; o++ {
			s := m.Bias[l][o]
			w := m.W[l][o]
			in := acts[l]
			for i := range in {
				s += w[i] * in[i]
			}
			if l == nl-1 {
				if m.Regression {
					acts[l+1][o] = s
				} else {
					acts[l+1][o] = 1 / (1 + math.Exp(-s))
				}
			} else {
				acts[l+1][o] = math.Tanh(s)
			}
		}
	}
}

// Output returns the raw network output (probability for classification,
// value for regression).
func (m *MLP) Output(x []float64) float64 {
	acts := make([][]float64, len(m.Sizes))
	m.forward(x, acts)
	return acts[len(acts)-1][0]
}

// Predict returns the regression value or the thresholded class.
func (m *MLP) Predict(x []float64) float64 {
	o := m.Output(x)
	if m.Regression {
		return o
	}
	if o >= 0.5 {
		return 1
	}
	return 0
}

// Validate checks that every trained parameter is finite and the layer
// shapes are mutually consistent. SGD on adversarial inputs (huge
// magnitudes, subnormals) can silently blow weights up to ±Inf/NaN; the
// conformance suite asserts this invariant after every generated fit.
func (m *MLP) Validate() error {
	if len(m.W) != len(m.Bias) {
		return errors.New("neural: weight/bias layer count mismatch")
	}
	if len(m.Sizes) != len(m.W)+1 {
		return errors.New("neural: layer sizes do not match weight layers")
	}
	for l := range m.W {
		if len(m.W[l]) != m.Sizes[l+1] || len(m.Bias[l]) != m.Sizes[l+1] {
			return errors.New("neural: layer width mismatch")
		}
		for _, row := range m.W[l] {
			if len(row) != m.Sizes[l] {
				return errors.New("neural: weight row width mismatch")
			}
			for _, w := range row {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					return errors.New("neural: non-finite weight")
				}
			}
		}
		for _, b := range m.Bias[l] {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				return errors.New("neural: non-finite bias")
			}
		}
	}
	return nil
}

// NumParams returns the total number of trainable parameters — the model
// complexity axis for the Figure 5 sweep.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.W {
		for _, row := range m.W[l] {
			n += len(row)
		}
		n += len(m.Bias[l])
	}
	return n
}
