package bayes

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/validate"
)

func TestNaiveBayesTwoGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := dataset.TwoGaussians(rng, 200, 3, 3, 1)
	tr, te := d.StratifiedSplit(rng, 0.7)
	nb, err := FitNaiveBayes(tr)
	if err != nil {
		t.Fatal(err)
	}
	acc := validate.Accuracy(dataset.PredictAll(te, nb.Predict), te.Y)
	if acc < 0.95 {
		t.Fatalf("naive bayes accuracy %g", acc)
	}
}

func TestNaiveBayesPriors(t *testing.T) {
	// Heavy class imbalance: with identical likelihoods, the prior decides.
	rows := [][]float64{{0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}, {0}, {0.001}}
	y := []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	nb, err := FitNaiveBayes(dataset.FromRows(rows, y))
	if err != nil {
		t.Fatal(err)
	}
	if nb.Predict([]float64{0}) != 0 {
		t.Fatal("prior should favour the majority class")
	}
	lp := nb.LogPosterior([]float64{0})
	if lp[0] <= lp[1] {
		t.Fatal("log posterior ordering wrong")
	}
}

func TestNaiveBayesEmpty(t *testing.T) {
	if _, err := FitNaiveBayes(dataset.FromRows(nil, nil)); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := FitDiscriminant(dataset.FromRows(nil, nil), false); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestLDAAccuracyAndDecisionSign(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := dataset.TwoGaussians(rng, 200, 2, 3, 1)
	m, err := FitDiscriminant(d, false)
	if err != nil {
		t.Fatal(err)
	}
	acc := validate.Accuracy(dataset.PredictAll(d, m.Predict), d.Y)
	if acc < 0.95 {
		t.Fatalf("LDA accuracy %g", acc)
	}
	// Eq. 1 decision: positive for class Classes[0] region.
	neg := []float64{-3, -3} // class 0 center is at -1.5 each axis
	pos := []float64{3, 3}
	if m.Decision(neg) <= 0 {
		t.Fatal("Decision should be positive near class 0")
	}
	if m.Decision(pos) >= 0 {
		t.Fatal("Decision should be negative near class 1")
	}
}

func TestQDAHandlesUnequalCovariances(t *testing.T) {
	// Class 0: tight blob at origin. Class 1: wide shell around it.
	// LDA (shared covariance) cannot express this; QDA can.
	rng := rand.New(rand.NewSource(3))
	n := 300
	rows := make([][]float64, 2*n)
	y := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		rows[i] = []float64{0.3 * rng.NormFloat64(), 0.3 * rng.NormFloat64()}
		y[i] = 0
	}
	for i := n; i < 2*n; i++ {
		rows[i] = []float64{3 * rng.NormFloat64(), 3 * rng.NormFloat64()}
		y[i] = 1
	}
	d := dataset.FromRows(rows, y)
	qda, err := FitDiscriminant(d, true)
	if err != nil {
		t.Fatal(err)
	}
	lda, err := FitDiscriminant(d, false)
	if err != nil {
		t.Fatal(err)
	}
	qAcc := validate.Accuracy(dataset.PredictAll(d, qda.Predict), d.Y)
	lAcc := validate.Accuracy(dataset.PredictAll(d, lda.Predict), d.Y)
	if qAcc < 0.85 {
		t.Fatalf("QDA accuracy %g", qAcc)
	}
	if qAcc <= lAcc {
		t.Fatalf("QDA (%g) should beat LDA (%g) on unequal covariances", qAcc, lAcc)
	}
}

func TestDiscriminantMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := dataset.Blobs(rng, 3, 100, 2, 6, 0.5)
	m, err := FitDiscriminant(d, false)
	if err != nil {
		t.Fatal(err)
	}
	acc := validate.Accuracy(dataset.PredictAll(d, m.Predict), d.Y)
	if acc < 0.95 {
		t.Fatalf("multiclass LDA accuracy %g", acc)
	}
}

func TestDecisionRequiresBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := dataset.Blobs(rng, 3, 30, 2, 6, 0.5)
	m, _ := FitDiscriminant(d, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for multiclass Decision")
		}
	}()
	m.Decision([]float64{0, 0})
}

func TestNaiveBayesConstantFeature(t *testing.T) {
	// A zero-variance feature must not produce NaNs.
	rows := [][]float64{{1, 0}, {1, 1}, {1, 0}, {1, 5}}
	y := []float64{0, 1, 0, 1}
	nb, err := FitNaiveBayes(dataset.FromRows(rows, y))
	if err != nil {
		t.Fatal(err)
	}
	lp := nb.LogPosterior([]float64{1, 0.4})
	for _, v := range lp {
		if math.IsNaN(v) {
			t.Fatal("NaN log posterior with constant feature")
		}
	}
}

func TestLDADecisionIsLinearInX(t *testing.T) {
	// With a pooled covariance, Eq.1's quadratic terms cancel: the decision
	// along any line should be an affine function. Check three collinear
	// points: D(mid) == (D(a)+D(b))/2.
	rng := rand.New(rand.NewSource(6))
	d := dataset.TwoGaussians(rng, 150, 2, 3, 1)
	m, _ := FitDiscriminant(d, false)
	a := []float64{-2, 1}
	b := []float64{2, -1}
	mid := []float64{0, 0}
	got := m.Decision(mid)
	want := (m.Decision(a) + m.Decision(b)) / 2
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("LDA decision not affine: %g vs %g", got, want)
	}
	_ = linalg.Dot // keep import if unused elsewhere
}

func BenchmarkNaiveBayesPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	d := dataset.TwoGaussians(rng, 500, 10, 3, 1)
	nb, _ := FitNaiveBayes(d)
	q := d.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nb.Predict(q)
	}
}
