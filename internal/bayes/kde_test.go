package bayes

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/validate"
)

func TestKDEClassifiesGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := dataset.TwoGaussians(rng, 150, 2, 3, 1)
	tr, te := d.StratifiedSplit(rng, 0.7)
	m, err := FitKDE(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc := validate.Accuracy(dataset.PredictAll(te, m.Predict), te.Y); acc < 0.93 {
		t.Fatalf("KDE accuracy %g", acc)
	}
}

func TestKDEBeatsGaussianOnBimodalClass(t *testing.T) {
	// Class 0 is bimodal (two blobs at ±4); class 1 sits between them at
	// the origin. A single-Gaussian density (QDA) models class 0 as one
	// wide blob centered exactly on class 1 and fails; KDE does not.
	rng := rand.New(rand.NewSource(2))
	n := 200
	rows := make([][]float64, 2*n)
	y := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		off := 4.0
		if i%2 == 0 {
			off = -4.0
		}
		rows[i] = []float64{off + 0.4*rng.NormFloat64(), 0.4 * rng.NormFloat64()}
	}
	for i := n; i < 2*n; i++ {
		rows[i] = []float64{0.4 * rng.NormFloat64(), 0.4 * rng.NormFloat64()}
		y[i] = 1
	}
	d := dataset.FromRows(rows, y)
	kde, err := FitKDE(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	qda, err := FitDiscriminant(d, true)
	if err != nil {
		t.Fatal(err)
	}
	kAcc := validate.Accuracy(dataset.PredictAll(d, kde.Predict), d.Y)
	qAcc := validate.Accuracy(dataset.PredictAll(d, qda.Predict), d.Y)
	if kAcc < 0.97 {
		t.Fatalf("KDE accuracy %g on bimodal class", kAcc)
	}
	if kAcc <= qAcc {
		t.Fatalf("KDE (%g) should beat single-Gaussian QDA (%g) on bimodal data", kAcc, qAcc)
	}
}

func TestKDEDensityIntegratesSensibly(t *testing.T) {
	// 1-D KDE density should be higher at the data mode than far away.
	rows := [][]float64{{0}, {0.1}, {-0.1}, {0.05}}
	y := []float64{0, 0, 0, 0}
	m, err := FitKDE(dataset.FromRows(rows, y), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	dMode := m.Density(0, []float64{0})
	dFar := m.Density(0, []float64{5})
	if dMode <= dFar || dFar < 0 {
		t.Fatalf("density ordering wrong: mode=%g far=%g", dMode, dFar)
	}
	if m.Density(99, []float64{0}) != 0 {
		t.Fatal("unknown class should have zero density")
	}
}

func TestKDEValidationAndConstantFeature(t *testing.T) {
	if _, err := FitKDE(dataset.FromRows(nil, nil), 0); err == nil {
		t.Fatal("empty dataset accepted")
	}
	// Constant feature: bandwidth fallback must avoid division by zero.
	rows := [][]float64{{1, 0}, {1, 1}, {1, 0}, {1, 2}}
	m, err := FitKDE(dataset.FromRows(rows, []float64{0, 1, 0, 1}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{1, 0.1}); math.IsNaN(p) {
		t.Fatal("NaN prediction")
	}
}
