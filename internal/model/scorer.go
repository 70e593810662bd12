package model

import (
	"fmt"

	"repro/internal/gp"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/rules"
	"repro/internal/svm"
	"repro/internal/tree"
)

// Scorer is the uniform prediction surface over every persistable model
// kind, used by the inference server and the CLIs. ScoreRow returns the
// model's primary scalar output for one sample — the predicted class
// label for SVC / tree / rule-set classifiers, the posterior or fitted
// mean for GP / ridge regressors, and the signed decision value for the
// one-class detector (negative = novel).
type Scorer struct {
	row  func(x []float64) float64
	into func(x *linalg.Matrix, out []float64) []float64
	dim  int
}

// ScoreRow scores one sample.
func (s Scorer) ScoreRow(x []float64) float64 { return s.row(x) }

// ScoreBatchInto scores every row of x into a caller-provided slice of
// length x.Rows (panics on length mismatch) and returns it, bit-identical
// to ScoreRow per row. It is the zero-allocation serving path: every
// model kind routes through pooled columnar scratch or the row loop of
// linalg.PredictRowsInto, so a steady-state call allocates nothing
// (alloc_test.go pins each of those paths at 0 allocs/op).
func (s Scorer) ScoreBatchInto(x *linalg.Matrix, out []float64) []float64 {
	return s.into(x, out)
}

// Dim returns the expected input width (0 when the model accepts any
// width, e.g. a rule set with no conditions).
func (s Scorer) Dim() int { return s.dim }

// rowScorer is the Scorer of a learner without an amortized batch path:
// its batch form is linalg.PredictRowsInto over the row primitive.
func rowScorer(p linalg.RowPredictor, dim int) Scorer {
	into := func(x *linalg.Matrix, out []float64) []float64 {
		return linalg.PredictRowsInto(x, out, p)
	}
	return Scorer{row: p.Predict, into: into, dim: dim}
}

// KernelExpansion exposes the shared structure of the kernel models —
// score(x) = combine(k(x, basis_1), …, k(x, basis_m)) — so the serving
// layer can cache kernel rows across requests and amortize Gram
// evaluation across a batch. Combine reproduces the model's serial
// accumulation order exactly, so combining a cached or batch-computed
// row is bit-identical to the model's own Predict/Decision.
type KernelExpansion struct {
	Basis *linalg.Matrix // support vectors / training inputs
	// Combine folds one kernel row k(x, basis_*) into the final score.
	Combine func(row []float64) float64
	// Eval computes one kernel row into dst (len == Basis.Rows).
	Eval func(x []float64, dst []float64)
}

// Scorer returns the prediction surface for the artifact's model kind.
func (a *Artifact) Scorer() (Scorer, error) {
	switch m := a.Model.(type) {
	case *ApproxModel:
		// Compiled fast path: one dot product through the feature map, no
		// kernel expansion. Checked first so a compiled artifact can never
		// fall through to an exact-kind scorer.
		return Scorer{row: m.ScoreRow, into: m.ScoreBatchInto, dim: m.Lin.Map.InputDim()}, nil
	case *svm.SVC:
		return Scorer{row: m.Predict, into: m.PredictBatchInto, dim: m.SV.Cols}, nil
	case *svm.OneClass:
		return Scorer{row: m.Decision, into: m.DecisionBatchInto, dim: m.SV.Cols}, nil
	case *gp.Regressor:
		return Scorer{row: m.Predict, into: m.PredictBatchInto, dim: m.X.Cols}, nil
	case *linear.Regression:
		return rowScorer(m, len(m.W)), nil
	case *tree.Tree:
		return rowScorer(m, a.Envelope.Features), nil
	case *rules.RuleSet:
		return rowScorer(m, a.Envelope.Features), nil
	default:
		return Scorer{}, fmt.Errorf("%w: no scorer for %T", ErrKind, a.Model)
	}
}

// KernelExpansion returns the kernel-row structure of the model, or
// false for the non-kernel kinds (ridge, tree, rule set) and for
// compiled approx-linear models — a compiled model has no per-basis
// kernel rows to cache, so the serving layer's kernel-row LRU is
// skipped entirely.
func (a *Artifact) KernelExpansion() (*KernelExpansion, bool) {
	switch m := a.Model.(type) {
	case *svm.SVC:
		return &KernelExpansion{
			Basis: m.SV,
			Combine: func(row []float64) float64 {
				s := m.B
				for j, alpha := range m.Alpha {
					s += alpha * row[j]
				}
				if s >= 0 {
					return m.Classes()[1]
				}
				return m.Classes()[0]
			},
			Eval: kernelRowEval(m.K.Eval, m.SV),
		}, true
	case *svm.OneClass:
		return &KernelExpansion{
			Basis: m.SV,
			Combine: func(row []float64) float64 {
				s := -m.Rho
				for j, alpha := range m.Alpha {
					s += alpha * row[j]
				}
				return s
			},
			Eval: kernelRowEval(m.K.Eval, m.SV),
		}, true
	case *gp.Regressor:
		return &KernelExpansion{
			Basis: m.X,
			Combine: func(row []float64) float64 {
				return m.Mean() + linalg.Dot(row, m.Alpha())
			},
			Eval: kernelRowEval(m.K.Eval, m.X),
		}, true
	default:
		return nil, false
	}
}

func kernelRowEval(eval func(a, b []float64) float64, basis *linalg.Matrix) func(x, dst []float64) {
	return func(x, dst []float64) {
		for j := 0; j < basis.Rows; j++ {
			dst[j] = eval(x, basis.Row(j))
		}
	}
}
