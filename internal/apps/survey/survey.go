// Package survey reproduces the paper's Section 2 didactic artifacts as
// runnable experiments: the kernel-trick demonstration of Figure 3, the
// overfitting complexity curve of Figure 5, and the five-regressor
// comparison of the Fmax-prediction study cited in Section 2.4 ([20]).
package survey

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/linear"
	"repro/internal/mfgtest"
	"repro/internal/obs"
	"repro/internal/svm"
	"repro/internal/validate"
)

// Section 2 didactic-experiment metrics, shared by survey.go and
// imbalance.go: samples drawn per run and per-run wall time.
var (
	surveySamples = obs.GetCounter("survey.samples_generated")
	surveyRunTime = obs.GetHistogram("survey.run_ns")
)

// Fig3Result is the Figure 3 outcome: the same linear learner fails in the
// input space and succeeds through the quadratic kernel's feature space.
type Fig3Result struct {
	LinearAccuracy     float64 // linear SVC in the input space
	PerceptronMistakes int     // perceptron mistakes in its final pass
	QuadAccuracy       float64 // SVC with the quadratic kernel
	ExplicitAccuracy   float64 // linear SVC in the explicit Φ space
	KernelIdentityErr  float64 // max |k(x,x') − <Φ(x),Φ(x')>| observed
}

// String renders the summary.
func (r *Fig3Result) String() string {
	return fmt.Sprintf(
		"input space:    linear SVC accuracy %.3f, perceptron still makes %d mistakes\nfeature space:  quadratic-kernel SVC accuracy %.3f, explicit Φ linear SVC %.3f\nkernel trick:   max |k(x,x') - <Φ(x),Φ(x')>| = %.2e",
		r.LinearAccuracy, r.PerceptronMistakes, r.QuadAccuracy, r.ExplicitAccuracy,
		r.KernelIdentityErr)
}

// Fig3 runs the kernel-trick demonstration on the ring-and-core dataset.
func Fig3(seed int64, n int) (*Fig3Result, error) {
	if n <= 0 {
		n = 100
	}
	defer surveyRunTime.Start().Stop()
	surveySamples.Add(2 * int64(n)) // n per class
	rng := rand.New(rand.NewSource(seed + 1))
	d := dataset.RingAndCore(rng, n, 1, 3, 0.05)

	res := &Fig3Result{}
	lin, err := svm.FitSVC(d, kernel.Linear{}, svm.SVCConfig{C: 1, Seed: seed})
	if err != nil {
		return nil, err
	}
	res.LinearAccuracy = validate.Accuracy(dataset.PredictAll(d, lin.Predict), d.Y)
	_, res.PerceptronMistakes = linear.FitPerceptron(d, 50)

	quad, err := svm.FitSVC(d, kernel.Poly{Degree: 2, Gamma: 1}, svm.SVCConfig{C: 10, Seed: seed})
	if err != nil {
		return nil, err
	}
	res.QuadAccuracy = validate.Accuracy(dataset.PredictAll(d, quad.Predict), d.Y)

	// Explicit feature space Φ(x) = (x1², x2², √2·x1x2).
	phiRows := make([][]float64, d.Len())
	for i := range phiRows {
		phiRows[i] = kernel.QuadFeatureMap(d.Row(i))
	}
	phi := dataset.FromRows(phiRows, d.Y)
	expl, err := svm.FitSVC(phi, kernel.Linear{}, svm.SVCConfig{C: 10, Seed: seed})
	if err != nil {
		return nil, err
	}
	res.ExplicitAccuracy = validate.Accuracy(dataset.PredictAll(phi, expl.Predict), phi.Y)

	// Verify the kernel identity numerically on the data.
	k := kernel.Poly{Degree: 2, Gamma: 1}
	for i := 0; i < 50; i++ {
		a, b := d.Row(rng.Intn(d.Len())), d.Row(rng.Intn(d.Len()))
		diff := k.Eval(a, b) - dot(kernel.QuadFeatureMap(a), kernel.QuadFeatureMap(b))
		if diff < 0 {
			diff = -diff
		}
		if diff > res.KernelIdentityErr {
			res.KernelIdentityErr = diff
		}
	}
	return res, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Fig5Result is the Figure 5 outcome: the train/validation error curve of
// a polynomial-regression family of rising degree.
type Fig5Result struct {
	Curve       []validate.CurvePoint
	BestDegree  int
	Overfitting bool
}

// String renders the curve as a table.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "degree", "train MSE", "valid MSE")
	for _, p := range r.Curve {
		fmt.Fprintf(&b, "%-10d %12.5f %12.5f\n", p.Complexity, p.TrainErr, p.ValidErr)
	}
	fmt.Fprintf(&b, "validation optimum at degree %d; overfitting beyond: %v",
		r.BestDegree, r.Overfitting)
	return b.String()
}

// Fig5 sweeps polynomial degree on the noisy-sine task.
func Fig5(seed int64, nTrain int) (*Fig5Result, error) {
	if nTrain <= 0 {
		nTrain = 30
	}
	defer surveyRunTime.Start().Stop()
	surveySamples.Add(int64(nTrain) + 300)
	rng := rand.New(rand.NewSource(seed + 1))
	train := dataset.NoisySine(rng, nTrain, 0.35)
	valid := dataset.NoisySine(rng, 300, 0.35)
	trainer := func(c int, tr, ev *dataset.Dataset) ([]float64, []float64, error) {
		ptr := linear.PolynomialFeatures(tr, c)
		pev := linear.PolynomialFeatures(ev, c)
		m, err := linear.FitRidge(ptr, 1e-9)
		if err != nil {
			return nil, nil, err
		}
		return dataset.PredictAll(ptr, m.Predict), dataset.PredictAll(pev, m.Predict), nil
	}
	curve, err := validate.ComplexityCurve(train, valid,
		[]int{1, 2, 3, 4, 5, 7, 9, 12, 15, 18}, trainer, validate.MSE)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{
		Curve:       curve,
		BestDegree:  validate.BestComplexity(curve),
		Overfitting: validate.IsOverfitting(curve, 0.05),
	}, nil
}

// RegressorScore is one row of the five-family comparison.
type RegressorScore struct {
	Name string
	RMSE float64
	R2   float64
}

// Sec2Result compares the five regressor families of [20] on the mfgtest
// Fmax task: predict maximum operating frequency from correlated
// parametric test measurements with a nonlinear ground truth.
type Sec2Result struct {
	Scores []RegressorScore
}

// String renders the comparison.
func (r *Sec2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %8s\n", "family", "RMSE", "R2")
	for _, s := range r.Scores {
		fmt.Fprintf(&b, "%-8s %10.4f %8.4f\n", s.Name, s.RMSE, s.R2)
	}
	return b.String()
}

// Sec2Regressors runs the study on the mfgtest Fmax task ([20]): predict
// maximum operating frequency from parametric test measurements.
func Sec2Regressors(seed int64, n int) (*Sec2Result, error) {
	rng := rand.New(rand.NewSource(seed + 1))
	if n <= 0 {
		n = 300
	}
	defer surveyRunTime.Start().Stop()
	surveySamples.Add(2 * int64(n))
	full := mfgtest.FmaxDataset(rng, 2*n)
	train, test := full.Split(rng, 0.5)
	// Standardize the response scale so every family's default
	// hyperparameters are reasonable.
	sc := dataset.FitScaler(train.X)
	train = dataset.MustNew(sc.Transform(train.X), normalizeY(train.Y), train.Names)
	test = dataset.MustNew(sc.Transform(test.X), normalizeY(test.Y), test.Names)

	res := &Sec2Result{}
	for _, nr := range core.FiveRegressors() {
		m, err := nr.Fit(train)
		if err != nil {
			return nil, fmt.Errorf("survey: %s: %w", nr.Name, err)
		}
		pred := dataset.PredictAll(test, m.Predict)
		res.Scores = append(res.Scores, RegressorScore{
			Name: nr.Name,
			RMSE: validate.RMSE(pred, test.Y),
			R2:   validate.R2(pred, test.Y),
		})
	}
	return res, nil
}

// normalizeY rescales the Fmax response to roughly unit scale (GHz-ish
// units) so that SVR's epsilon tube and GP noise defaults are sensible.
func normalizeY(y []float64) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = v / 100
	}
	return out
}
