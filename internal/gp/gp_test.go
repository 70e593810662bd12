package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/validate"
)

func TestGPInterpolatesNoiselessData(t *testing.T) {
	rows := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	y := make([]float64, 5)
	for i, r := range rows {
		y[i] = math.Sin(2 * math.Pi * r[0])
	}
	d := dataset.FromRows(rows, y)
	g, err := Fit(d, Config{Kernel: kernel.RBF{Gamma: 5}, Noise: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if got := g.Predict(r); math.Abs(got-y[i]) > 1e-3 {
			t.Fatalf("training point %d: %g vs %g", i, got, y[i])
		}
	}
}

func TestGPVarianceGrowsAwayFromData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := dataset.NoisySine(rng, 40, 0.05)
	g, err := Fit(d, Config{Kernel: kernel.RBF{Gamma: 10}, Noise: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	_, vIn := g.PredictVar([]float64{0.5})
	_, vOut := g.PredictVar([]float64{5})
	if vOut <= vIn {
		t.Fatalf("variance should grow off-support: in=%g out=%g", vIn, vOut)
	}
	// Far from data the posterior reverts to the prior variance k(x,x)=1.
	if math.Abs(vOut-1) > 0.05 {
		t.Fatalf("far-field variance should approach prior: %g", vOut)
	}
}

func TestGPRegressionQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := dataset.NoisySine(rng, 80, 0.1)
	test := dataset.NoisySine(rng, 200, 0.1)
	g, err := Fit(train, Config{Kernel: kernel.RBF{Gamma: 10}, Noise: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	r2 := validate.R2(dataset.PredictAll(test, g.Predict), test.Y)
	if r2 < 0.9 {
		t.Fatalf("GP R2 %g", r2)
	}
}

func TestGPLogMarginalLikelihoodPrefersGoodHyperparams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := dataset.NoisySine(rng, 60, 0.05)
	good, err := Fit(d, Config{Kernel: kernel.RBF{Gamma: 10}, Noise: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Fit(d, Config{Kernel: kernel.RBF{Gamma: 1e-4}, Noise: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if good.LogMarginalLikelihood(d.Y) <= bad.LogMarginalLikelihood(d.Y) {
		t.Fatal("LML should prefer the well-scaled kernel")
	}
}

func TestGPEmptyAndDefaults(t *testing.T) {
	if _, err := Fit(dataset.FromRows(nil, nil), Config{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	rng := rand.New(rand.NewSource(4))
	d := dataset.NoisySine(rng, 20, 0.1)
	if _, err := Fit(d, Config{}); err != nil { // default kernel + noise
		t.Fatal(err)
	}
}

func TestSelectGammaPicksSensibleScale(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := dataset.NoisySine(rng, 60, 0.05)
	m, gamma, err := SelectGamma(d, []float64{1e-4, 0.1, 10, 1000}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// For sin(2πx) on [0,1], a lengthscale near gamma=10 is right; the
	// extreme candidates underfit (1e-4) or interpolate noise (1000).
	if gamma != 10 {
		t.Fatalf("selected gamma %g, want 10", gamma)
	}
	test := dataset.NoisySine(rng, 100, 0.05)
	if r2 := validate.R2(dataset.PredictAll(test, m.Predict), test.Y); r2 < 0.9 {
		t.Fatalf("selected model R2 %g", r2)
	}
	if _, _, err := SelectGamma(d, nil, 0.01); err == nil {
		t.Fatal("empty candidate list accepted")
	}
}

func BenchmarkGPFit100(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	d := dataset.NoisySine(rng, 100, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(d, Config{Kernel: kernel.RBF{Gamma: 10}, Noise: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}
