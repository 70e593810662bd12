package linear

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/validate"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g want %g", msg, got, want)
	}
}

func linearData(rng *rand.Rand, n int, w []float64, b, noise float64) *dataset.Dataset {
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		row := make([]float64, len(w))
		s := b
		for j := range row {
			row[j] = rng.NormFloat64()
			s += w[j] * row[j]
		}
		rows[i] = row
		y[i] = s + noise*rng.NormFloat64()
	}
	return dataset.FromRows(rows, y)
}

func TestOLSRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := []float64{2, -1, 0.5}
	d := linearData(rng, 500, w, 3, 0.01)
	m, err := FitOLS(d)
	if err != nil {
		t.Fatal(err)
	}
	for j := range w {
		approx(t, m.W[j], w[j], 0.01, "weight")
	}
	approx(t, m.B, 3, 0.01, "intercept")
	pred := dataset.PredictAll(d, m.Predict)
	if validate.R2(pred, d.Y) < 0.999 {
		t.Fatalf("R2 %g", validate.R2(pred, d.Y))
	}
}

func TestRidgeShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := linearData(rng, 100, []float64{5, -5}, 0, 0.5)
	ols, _ := FitOLS(d)
	ridge, err := FitRidge(d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ols.W {
		if math.Abs(ridge.W[j]) >= math.Abs(ols.W[j]) {
			t.Fatalf("ridge weight %d not shrunk: %g vs %g", j, ridge.W[j], ols.W[j])
		}
	}
	if _, err := FitRidge(d, -1); err == nil {
		t.Fatal("negative lambda accepted")
	}
}

func TestRidgeHandlesCollinearity(t *testing.T) {
	// Duplicate feature: OLS normal equations are singular without jitter;
	// ridge must handle this cleanly.
	rows := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	y := []float64{2, 4, 6, 8}
	d := dataset.FromRows(rows, y)
	m, err := FitRidge(d, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, m.Predict([]float64{5, 5}), 10, 0.5, "collinear prediction")
}

func TestEmptyDatasetErrors(t *testing.T) {
	d := dataset.FromRows(nil, nil)
	if _, err := FitOLS(d); err == nil {
		t.Fatal("expected error for empty dataset")
	}
	if _, err := FitLogistic(d, LogisticConfig{}); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestPolynomialFeatures(t *testing.T) {
	d := dataset.FromRows([][]float64{{2}}, []float64{0})
	p := PolynomialFeatures(d, 3)
	row := p.Row(0)
	approx(t, row[0], 2, 0, "x")
	approx(t, row[1], 4, 0, "x2")
	approx(t, row[2], 8, 0, "x3")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for multi-dim input")
		}
	}()
	PolynomialFeatures(dataset.FromRows([][]float64{{1, 2}}, []float64{0}), 2)
}

func TestLogisticSeparatesGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := dataset.TwoGaussians(rng, 150, 2, 4, 1)
	m, err := FitLogistic(d, LogisticConfig{Epochs: 300})
	if err != nil {
		t.Fatal(err)
	}
	acc := validate.Accuracy(dataset.PredictAll(d, m.Predict), d.Y)
	if acc < 0.95 {
		t.Fatalf("logistic accuracy %g", acc)
	}
	// Probabilities are proper.
	p := m.Prob(d.Row(0))
	if p < 0 || p > 1 {
		t.Fatalf("prob out of range: %g", p)
	}
}

func TestLogisticRejectsBadLabels(t *testing.T) {
	d := dataset.FromRows([][]float64{{1}, {2}}, []float64{0, 2})
	if _, err := FitLogistic(d, LogisticConfig{}); err == nil {
		t.Fatal("expected label validation error")
	}
}

func TestPerceptronConvergesOnSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := dataset.TwoGaussians(rng, 100, 2, 8, 0.5)
	_, mistakes := FitPerceptron(d, 100)
	if mistakes != 0 {
		t.Fatalf("perceptron did not converge on separable data: %d mistakes", mistakes)
	}
}

func TestPerceptronFailsOnRing(t *testing.T) {
	// Figure 3: ring-and-core is not linearly separable in input space.
	rng := rand.New(rand.NewSource(5))
	d := dataset.RingAndCore(rng, 100, 1, 3, 0.05)
	_, mistakes := FitPerceptron(d, 50)
	if mistakes == 0 {
		t.Fatal("perceptron should not separate ring-and-core in input space")
	}
}

func TestOverfittingCurveFig5Shape(t *testing.T) {
	// Polynomial regression on noisy sine: validation error must be
	// U-shaped while training error decreases (paper Figure 5).
	rng := rand.New(rand.NewSource(6))
	train := dataset.NoisySine(rng, 30, 0.35)
	valid := dataset.NoisySine(rng, 200, 0.35)
	trainer := func(c int, tr, ev *dataset.Dataset) ([]float64, []float64, error) {
		ptr := PolynomialFeatures(tr, c)
		pev := PolynomialFeatures(ev, c)
		m, err := FitRidge(ptr, 1e-9)
		if err != nil {
			return nil, nil, err
		}
		return dataset.PredictAll(ptr, m.Predict), dataset.PredictAll(pev, m.Predict), nil
	}
	curve, err := validate.ComplexityCurve(train, valid,
		[]int{1, 2, 3, 5, 7, 9, 12, 15, 18}, trainer, validate.MSE)
	if err != nil {
		t.Fatal(err)
	}
	// Training error at max complexity below training error at min.
	if curve[len(curve)-1].TrainErr >= curve[0].TrainErr {
		t.Fatal("training error did not decrease with complexity")
	}
	best := validate.BestComplexity(curve)
	if best <= 1 || best >= 18 {
		t.Fatalf("validation optimum should be interior, got %d", best)
	}
	if !validate.IsOverfitting(curve, 0.05) {
		t.Fatal("expected overfitting signature at high degree")
	}
}

func BenchmarkFitOLS200x10(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, 10)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	d := linearData(rng, 200, w, 1, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitOLS(d); err != nil {
			b.Fatal(err)
		}
	}
}
