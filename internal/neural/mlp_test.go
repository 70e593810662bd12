package neural

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/validate"
)

func TestMLPSolvesXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := dataset.XOR(rng, 40, 0.15)
	m, err := Fit(d, Config{Hidden: []int{8}, Epochs: 400, LearningRate: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc := validate.Accuracy(dataset.PredictAll(d, m.Predict), d.Y)
	if acc < 0.95 {
		t.Fatalf("MLP XOR accuracy %g", acc)
	}
}

func TestMLPClassifiesGaussians(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := dataset.TwoGaussians(rng, 80, 2, 4, 1)
	tr, te := d.StratifiedSplit(rng, 0.7)
	m, err := Fit(tr, Config{Hidden: []int{6}, Epochs: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := validate.Accuracy(dataset.PredictAll(te, m.Predict), te.Y); acc < 0.92 {
		t.Fatalf("MLP accuracy %g", acc)
	}
	// Probabilities lie in [0,1].
	p := m.Output(te.Row(0))
	if p < 0 || p > 1 {
		t.Fatalf("output %g not a probability", p)
	}
}

func TestMLPRegressionSine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := dataset.NoisySine(rng, 150, 0.05)
	test := dataset.NoisySine(rng, 100, 0.05)
	m, err := Fit(train, Config{Hidden: []int{16}, Epochs: 600, LearningRate: 0.02,
		Regression: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r2 := validate.R2(dataset.PredictAll(test, m.Predict), test.Y)
	if r2 < 0.85 {
		t.Fatalf("MLP sine R2 %g", r2)
	}
}

func TestMLPValidation(t *testing.T) {
	if _, err := Fit(dataset.FromRows(nil, nil), Config{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	bad := dataset.FromRows([][]float64{{1}}, []float64{5})
	if _, err := Fit(bad, Config{}); err == nil {
		t.Fatal("bad labels accepted")
	}
}

func TestMLPNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := dataset.TwoGaussians(rng, 10, 3, 2, 1)
	m, err := Fit(d, Config{Hidden: []int{5}, Epochs: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 3*5 + 5 bias + 5*1 + 1 bias = 26.
	if got := m.NumParams(); got != 26 {
		t.Fatalf("NumParams %d, want 26", got)
	}
}

func TestMLPDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := dataset.TwoGaussians(rng, 30, 2, 3, 1)
	m1, _ := Fit(d, Config{Hidden: []int{4}, Epochs: 50, Seed: 42})
	m2, _ := Fit(d, Config{Hidden: []int{4}, Epochs: 50, Seed: 42})
	for i := 0; i < d.Len(); i++ {
		if math.Abs(m1.Output(d.Row(i))-m2.Output(d.Row(i))) > 1e-12 {
			t.Fatal("same seed must give identical models")
		}
	}
}

func BenchmarkMLPFitXOR(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	d := dataset.XOR(rng, 25, 0.15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(d, Config{Hidden: []int{8}, Epochs: 100, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
