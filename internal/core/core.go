// Package core is the methodology layer — the paper's actual contribution.
// It holds the shared vocabulary that the applications under
// internal/apps draw on:
//
//   - Learning = Data + Knowledge (paper Section 1): data arrives as a
//     dataset.Dataset or as a kernel over arbitrary sample objects;
//     knowledge is injected either through the kernel (kernel-based
//     learning, Section 2.2) or through the feature definitions
//     (feature-based learning, Section 5).
//   - One learner interface, Predictor, so a study can swap algorithm
//     families without touching its problem formulation (the §2.4
//     regression survey iterates FiveRegressors).
//   - The iterative knowledge-discovery loop of Section 5 (RunKDLoop) and
//     the Section 1 suitability criteria (UsageCheck).
//
// Batch scoring lives with the data, not here: dataset.PredictAll and
// linalg.PredictRowsInto apply any learner's one-row method to every row.
package core

import (
	"fmt"

	"repro/internal/dataset"
)

// Predictor is a fitted model: Predict returns the class label of one
// sample for a classifier, or the response for a regressor.
type Predictor interface {
	Predict(x []float64) float64
}

// NamedRegressor pairs a regressor family with its report name; the §2.4
// five-family regression study ([20]) iterates over these.
type NamedRegressor struct {
	Name string
	Fit  func(d *dataset.Dataset) (Predictor, error)
}

// KDStep is one iteration of the knowledge-discovery loop: it consumes the
// accumulated evidence, produces human-readable findings, and decides
// whether another iteration is warranted.
type KDStep func(iteration int) (findings []string, done bool, err error)

// KDResult records a finished knowledge-discovery run.
type KDResult struct {
	Iterations int
	Findings   [][]string // findings per iteration
}

// RunKDLoop drives the iterative mining process of paper Section 5 for at
// most maxIters iterations. Each iteration's findings are retained so that
// the final report shows how the understanding evolved — the paper's
// "results from each iteration are evaluated to adjust the mining in the
// next iteration".
func RunKDLoop(maxIters int, step KDStep) (*KDResult, error) {
	if maxIters <= 0 {
		maxIters = 1
	}
	res := &KDResult{}
	for it := 0; it < maxIters; it++ {
		findings, done, err := step(it)
		if err != nil {
			return nil, fmt.Errorf("core: knowledge-discovery iteration %d: %w", it, err)
		}
		res.Findings = append(res.Findings, findings)
		res.Iterations = it + 1
		if done {
			break
		}
	}
	return res, nil
}

// UsageCheck captures the paper's Section 1 criteria for a worthwhile data
// mining methodology. Applications fill it in and reports render it, so
// each experiment states explicitly why (or why not) mining is suitable.
type UsageCheck struct {
	// NoGuaranteeNeeded: the methodology is useful without guaranteed
	// learning results (criterion 1).
	NoGuaranteeNeeded bool
	// DataAvailable: the required data already exists or is cheap
	// (criterion 2).
	DataAvailable bool
	// AddsValue: complements, rather than replaces, existing tools
	// (criterion 3).
	AddsValue bool
	// NoExtraBurden: the flow does not cost the user more effort than
	// solving the problem without it (criterion 4).
	NoExtraBurden bool
}

// Suitable reports whether all four criteria hold. The Figure 12
// cost-reduction case fails criterion 1 — a guaranteed escape bound is
// demanded — which is exactly the paper's difficult case.
func (u UsageCheck) Suitable() bool {
	return u.NoGuaranteeNeeded && u.DataAvailable && u.AddsValue && u.NoExtraBurden
}

// String renders the check.
func (u UsageCheck) String() string {
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	return fmt.Sprintf("no-guarantee-needed=%s data-available=%s adds-value=%s no-extra-burden=%s => suitable=%v",
		mark(u.NoGuaranteeNeeded), mark(u.DataAvailable), mark(u.AddsValue),
		mark(u.NoExtraBurden), u.Suitable())
}
