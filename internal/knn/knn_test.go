package knn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/validate"
)

func TestDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if Euclidean(a, b) != 5 {
		t.Fatal("euclidean")
	}
	if Manhattan(a, b) != 7 {
		t.Fatal("manhattan")
	}
	if Chebyshev(a, b) != 4 {
		t.Fatal("chebyshev")
	}
}

func TestFitValidation(t *testing.T) {
	d := dataset.FromRows([][]float64{{1}}, []float64{0})
	if _, err := Fit(dataset.FromRows(nil, nil), 1, nil); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := Fit(d, 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	m, err := Fit(d, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 1 {
		t.Fatalf("k should clamp to n, got %d", m.K)
	}
}

func TestClassifyTwoGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := dataset.TwoGaussians(rng, 100, 2, 4, 1)
	tr, te := d.StratifiedSplit(rng, 0.7)
	m, err := Fit(tr, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := validate.Accuracy(dataset.PredictAll(te, m.Classify), te.Y)
	if acc < 0.93 {
		t.Fatalf("knn accuracy %g", acc)
	}
}

func TestClassifyNonlinearRing(t *testing.T) {
	// kNN handles Figure 3's ring-and-core without any kernel.
	rng := rand.New(rand.NewSource(2))
	d := dataset.RingAndCore(rng, 150, 1, 3, 0.05)
	tr, te := d.StratifiedSplit(rng, 0.7)
	m, _ := Fit(tr, 3, nil)
	acc := validate.Accuracy(dataset.PredictAll(te, m.Classify), te.Y)
	if acc < 0.97 {
		t.Fatalf("knn ring accuracy %g", acc)
	}
}

func TestK1MemorizesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := dataset.TwoGaussians(rng, 50, 3, 2, 1)
	m, _ := Fit(d, 1, nil)
	acc := validate.Accuracy(dataset.PredictAll(d, m.Classify), d.Y)
	if acc != 1 {
		t.Fatalf("1-NN training accuracy must be 1, got %g", acc)
	}
}

func TestRegress(t *testing.T) {
	// y = x on a grid; interpolation at midpoints should be close.
	rows := [][]float64{{0}, {1}, {2}, {3}, {4}}
	y := []float64{0, 1, 2, 3, 4}
	d := dataset.FromRows(rows, y)
	m, _ := Fit(d, 2, nil)
	got := m.Regress([]float64{1.5})
	if math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("regress midpoint %g", got)
	}
	mw, _ := Fit(d, 2, nil)
	mw.Weighted = true
	got = mw.Regress([]float64{1.1})
	if got < 1 || got > 1.5 {
		t.Fatalf("weighted regress %g", got)
	}
	all := dataset.PredictAll(d, m.Regress)
	if len(all) != 5 {
		t.Fatal("RegressAll length")
	}
}

func TestWeightedVotingBreaksMajority(t *testing.T) {
	// Two far class-1 points vs one coincident class-0 point: unweighted
	// 3-NN says 1, weighted says 0.
	rows := [][]float64{{0}, {10}, {10.5}}
	y := []float64{0, 1, 1}
	d := dataset.FromRows(rows, y)
	m, _ := Fit(d, 3, nil)
	if m.Classify([]float64{0.01}) != 1 {
		t.Fatal("unweighted majority should pick 1")
	}
	m.Weighted = true
	if m.Classify([]float64{0.01}) != 0 {
		t.Fatal("weighted vote should pick the near point")
	}
}

func BenchmarkClassify1000(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	d := dataset.TwoGaussians(rng, 500, 8, 3, 1)
	m, _ := Fit(d, 5, nil)
	q := d.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Classify(q)
	}
}
