package svm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/validate"
)

func TestSVCLinearSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := dataset.TwoGaussians(rng, 60, 2, 5, 0.8)
	m, err := FitSVC(d, kernel.Linear{}, SVCConfig{C: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc := validate.Accuracy(dataset.PredictAll(d, m.Predict), d.Y)
	if acc < 0.98 {
		t.Fatalf("SVC linear accuracy %g", acc)
	}
	if m.NumSV() == 0 || m.NumSV() == d.Len() {
		t.Fatalf("suspicious SV count %d of %d", m.NumSV(), d.Len())
	}
	if m.Complexity() <= 0 {
		t.Fatal("complexity must be positive")
	}
}

func TestSVCKernelTrickOnRing(t *testing.T) {
	// Figure 3: a linear SVC fails on ring-and-core, the quadratic kernel
	// separates it perfectly.
	rng := rand.New(rand.NewSource(2))
	d := dataset.RingAndCore(rng, 80, 1, 3, 0.05)
	lin, err := FitSVC(d, kernel.Linear{}, SVCConfig{C: 1})
	if err != nil {
		t.Fatal(err)
	}
	linAcc := validate.Accuracy(dataset.PredictAll(d, lin.Predict), d.Y)
	quad, err := FitSVC(d, kernel.Poly{Degree: 2, Gamma: 1, Coef0: 0}, SVCConfig{C: 10})
	if err != nil {
		t.Fatal(err)
	}
	quadAcc := validate.Accuracy(dataset.PredictAll(d, quad.Predict), d.Y)
	if linAcc > 0.75 {
		t.Fatalf("linear SVC should fail on the ring, got %g", linAcc)
	}
	if quadAcc < 0.98 {
		t.Fatalf("quadratic SVC should separate the ring, got %g", quadAcc)
	}
}

func TestSVCRBFOnXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := dataset.XOR(rng, 40, 0.25)
	m, err := FitSVC(d, kernel.RBF{Gamma: 1}, SVCConfig{C: 5})
	if err != nil {
		t.Fatal(err)
	}
	acc := validate.Accuracy(dataset.PredictAll(d, m.Predict), d.Y)
	if acc < 0.95 {
		t.Fatalf("RBF SVC on XOR accuracy %g", acc)
	}
}

func TestSVCValidation(t *testing.T) {
	if _, err := FitSVC(dataset.FromRows(nil, nil), nil, SVCConfig{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	one := dataset.FromRows([][]float64{{1}, {2}}, []float64{0, 0})
	if _, err := FitSVC(one, nil, SVCConfig{}); err == nil {
		t.Fatal("single-class dataset accepted")
	}
}

func TestSVCPreservesOriginalLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := dataset.TwoGaussians(rng, 40, 2, 5, 0.8)
	// Relabel as {3, 7}.
	for i := range d.Y {
		if d.Y[i] == 0 {
			d.Y[i] = 3
		} else {
			d.Y[i] = 7
		}
	}
	m, err := FitSVC(d, kernel.Linear{}, SVCConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dataset.PredictAll(d, m.Predict) {
		if p != 3 && p != 7 {
			t.Fatalf("prediction %g not an original label", p)
		}
	}
}

func TestOneClassFlagsOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	x := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
	}
	m, err := FitOneClass(x, kernel.RBF{Gamma: 0.5}, OneClassConfig{Nu: 0.1, MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// A far-away point must be novel, the origin must not be.
	if !m.Novel([]float64{8, 8}) {
		t.Fatal("distant point should be novel")
	}
	if m.Novel([]float64{0, 0}) {
		t.Fatal("origin should be inside the support")
	}
	// Fraction of training points flagged should be around nu (loose).
	flagged := 0
	for i := 0; i < n; i++ {
		if m.Novel(x.Row(i)) {
			flagged++
		}
	}
	rate := float64(flagged) / float64(n)
	if rate > 0.3 {
		t.Fatalf("too many training points novel: %g", rate)
	}
}

func TestOneClassNuControlsRejection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 150
	x := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
	}
	rate := func(nu float64) float64 {
		m, err := FitOneClass(x, kernel.RBF{Gamma: 0.5}, OneClassConfig{Nu: nu, MaxIters: 3000})
		if err != nil {
			t.Fatal(err)
		}
		f := 0
		for i := 0; i < n; i++ {
			if m.Novel(x.Row(i)) {
				f++
			}
		}
		return float64(f) / float64(n)
	}
	if rate(0.05) >= rate(0.5) {
		t.Fatal("larger nu should reject more training points")
	}
}

func TestOneClassGramMatchesVectorForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 80
	x := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		x.Set(i, 1, rng.NormFloat64())
	}
	k := kernel.RBF{Gamma: 0.5}
	vec, err := FitOneClass(x, k, OneClassConfig{Nu: 0.2, MaxIters: 3000})
	if err != nil {
		t.Fatal(err)
	}
	g := kernel.Gram(k, x)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = g.Row(i)
	}
	gm, err := FitOneClassGram(rows, OneClassConfig{Nu: 0.2, MaxIters: 3000})
	if err != nil {
		t.Fatal(err)
	}
	// Same decisions on the training points.
	for i := 0; i < n; i++ {
		kx := make([]float64, n)
		for j := 0; j < n; j++ {
			kx[j] = k.Eval(x.Row(i), x.Row(j))
		}
		dv := vec.Decision(x.Row(i))
		dg := gm.Decision(kx)
		if math.Abs(dv-dg) > 1e-6 {
			t.Fatalf("sample %d: vector %g vs gram %g", i, dv, dg)
		}
	}
}

func TestOneClassGramValidation(t *testing.T) {
	if _, err := FitOneClassGram(nil, OneClassConfig{}); err == nil {
		t.Fatal("empty gram accepted")
	}
	if _, err := FitOneClassGram([][]float64{{1, 2}}, OneClassConfig{}); err == nil {
		t.Fatal("ragged gram accepted")
	}
}

func TestSVRFitsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 120
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		x := rng.Float64()*4 - 2
		rows[i] = []float64{x}
		y[i] = 2*x + 1 + 0.02*rng.NormFloat64()
	}
	d := dataset.FromRows(rows, y)
	m, err := FitSVR(d, kernel.Linear{}, SVRConfig{C: 10, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pred := dataset.PredictAll(d, m.Predict)
	if r2 := validate.R2(pred, d.Y); r2 < 0.99 {
		t.Fatalf("SVR linear R2 %g", r2)
	}
	// f(0) should be near intercept 1.
	if got := m.Predict([]float64{0}); math.Abs(got-1) > 0.15 {
		t.Fatalf("intercept %g", got)
	}
}

func TestSVRNonlinearWithRBF(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := dataset.NoisySine(rng, 150, 0.05)
	m, err := FitSVR(d, kernel.RBF{Gamma: 20}, SVRConfig{C: 10, Epsilon: 0.05, MaxIters: 50000})
	if err != nil {
		t.Fatal(err)
	}
	pred := dataset.PredictAll(d, m.Predict)
	if r2 := validate.R2(pred, d.Y); r2 < 0.9 {
		t.Fatalf("SVR sine R2 %g", r2)
	}
}

func TestSVREpsilonSparsity(t *testing.T) {
	// A wider tube needs fewer support vectors.
	rng := rand.New(rand.NewSource(10))
	d := dataset.NoisySine(rng, 100, 0.1)
	tight, err := FitSVR(d, kernel.RBF{Gamma: 10}, SVRConfig{C: 5, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := FitSVR(d, kernel.RBF{Gamma: 10}, SVRConfig{C: 5, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if wide.NumSV() >= tight.NumSV() {
		t.Fatalf("wide tube (%d SVs) should be sparser than tight (%d SVs)",
			wide.NumSV(), tight.NumSV())
	}
}

func TestSVREmpty(t *testing.T) {
	if _, err := FitSVR(dataset.FromRows(nil, nil), nil, SVRConfig{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func BenchmarkFitSVC100(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	d := dataset.TwoGaussians(rng, 50, 4, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitSVC(d, kernel.RBF{Gamma: 0.5}, SVCConfig{C: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitOneClass200(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x := linalg.NewMatrix(200, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitOneClass(x, kernel.RBF{Gamma: 0.3}, OneClassConfig{Nu: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}
