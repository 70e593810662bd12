package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g want %g", msg, got, want)
	}
}

func randVecs(rng *rand.Rand, n, d int) *linalg.Matrix {
	m := linalg.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestLinearKernel(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4}
	approx(t, Linear{}.Eval(a, b), 11, 1e-12, "linear")
}

func TestQuadKernelEqualsFeatureMapDot(t *testing.T) {
	// The kernel trick identity of paper Figure 3:
	// (x·y)² == <Φ(x), Φ(y)> with Φ(x) = (x1², x2², √2 x1x2).
	rng := rand.New(rand.NewSource(1))
	k := Poly{Degree: 2, Gamma: 1}
	for i := 0; i < 100; i++ {
		a := []float64{rng.NormFloat64(), rng.NormFloat64()}
		b := []float64{rng.NormFloat64(), rng.NormFloat64()}
		lhs := k.Eval(a, b)
		rhs := linalg.Dot(QuadFeatureMap(a), QuadFeatureMap(b))
		approx(t, lhs, rhs, 1e-9*(1+math.Abs(lhs)), "kernel trick identity")
	}
}

func TestRBFProperties(t *testing.T) {
	k := RBF{Gamma: 0.5}
	a := []float64{1, 2, 3}
	approx(t, k.Eval(a, a), 1, 1e-12, "self similarity is 1")
	b := []float64{4, 5, 6}
	v := k.Eval(a, b)
	if v <= 0 || v >= 1 {
		t.Fatalf("rbf out of (0,1): %g", v)
	}
	approx(t, v, k.Eval(b, a), 1e-15, "symmetry")
}

func TestHistogramIntersection(t *testing.T) {
	k := HistogramIntersection{}
	a := []float64{0.5, 0.3, 0.2}
	b := []float64{0.2, 0.5, 0.3}
	approx(t, k.Eval(a, b), 0.2+0.3+0.2, 1e-12, "HI value")
	approx(t, k.Eval(a, a), 1, 1e-12, "HI self = mass")
	// Bounded by min of masses.
	if k.Eval(a, b) > 1 {
		t.Fatal("HI exceeds mass")
	}
}

func TestKernelsArePSDOnSampledData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randVecs(rng, 20, 4)
	for _, k := range []Kernel{Linear{}, Poly{Degree: 2, Gamma: 1, Coef0: 1}, RBF{Gamma: 0.3}} {
		g := Gram(k, x)
		if !g.IsSymmetric(1e-10) {
			t.Fatalf("%s: gram not symmetric", k.Name())
		}
		if !IsPSD(g, 1e-7) {
			t.Fatalf("%s: gram not PSD", k.Name())
		}
	}
	// HI kernel on nonnegative histograms is PSD too.
	h := linalg.NewMatrix(15, 6)
	for i := range h.Data {
		h.Data[i] = rng.Float64()
	}
	if !IsPSD(Gram(HistogramIntersection{}, h), 1e-7) {
		t.Fatal("HI gram not PSD")
	}
}

func TestCrossGramShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randVecs(rng, 4, 3)
	b := randVecs(rng, 6, 3)
	g := CrossGram(RBF{Gamma: 1}, a, b)
	if g.Rows != 4 || g.Cols != 6 {
		t.Fatalf("shape %dx%d", g.Rows, g.Cols)
	}
	approx(t, g.At(1, 2), RBF{Gamma: 1}.Eval(a.Row(1), b.Row(2)), 1e-15, "crossgram entry")
}

func TestCenterZerosFeatureMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randVecs(rng, 12, 3)
	g := Center(Gram(Linear{}, x))
	// A centered Gram matrix has zero row sums.
	for i := 0; i < g.Rows; i++ {
		s := 0.0
		for j := 0; j < g.Cols; j++ {
			s += g.At(i, j)
		}
		approx(t, s, 0, 1e-9, "centered row sum")
	}
}

func TestNormalizeUnitDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randVecs(rng, 8, 3)
	n := Normalize{K: Poly{Degree: 3, Gamma: 1, Coef0: 1}}
	for i := 0; i < x.Rows; i++ {
		approx(t, n.Eval(x.Row(i), x.Row(i)), 1, 1e-12, "unit self-similarity")
	}
	v := n.Eval(x.Row(0), x.Row(1))
	if math.Abs(v) > 1+1e-12 {
		t.Fatalf("normalized kernel out of [-1,1]: %g", v)
	}
}

func TestSpectrumKernel(t *testing.T) {
	k := Spectrum{N: 2}
	a := []string{"ld", "add", "st"}
	b := []string{"ld", "add", "mul"}
	// a's bigrams: {ld·add, add·st}; b's: {ld·add, add·mul}; shared: 1.
	approx(t, k.EvalSeq(a, b), 1, 1e-12, "spectrum overlap")
	approx(t, k.EvalSeq(a, a), 2, 1e-12, "spectrum self")
	kn := Spectrum{N: 2, Normalize: true}
	approx(t, kn.EvalSeq(a, a), 1, 1e-12, "normalized self")
	approx(t, kn.EvalSeq(a, b), 0.5, 1e-12, "normalized overlap")
	// Sequences shorter than n have empty spectra.
	approx(t, k.EvalSeq([]string{"ld"}, a), 0, 0, "short sequence")
	approx(t, kn.EvalSeq([]string{"ld"}, a), 0, 0, "short normalized")
}

func TestSpectrumPermutationSensitivity(t *testing.T) {
	// A 1-gram spectrum ignores order; a 2-gram spectrum does not.
	a := []string{"x", "y", "z"}
	b := []string{"z", "y", "x"}
	k1 := Spectrum{N: 1}
	approx(t, k1.EvalSeq(a, b), k1.EvalSeq(a, a), 1e-12, "unigram order-invariant")
	k2 := Spectrum{N: 2}
	if k2.EvalSeq(a, b) >= k2.EvalSeq(a, a) {
		t.Fatal("bigram kernel should penalize reordering")
	}
}

func TestBlendedSpectrum(t *testing.T) {
	b := BlendedSpectrum{MaxN: 3, Lambda: 0.5, Normalize: true}
	a := []string{"ld", "add", "st", "ld"}
	approx(t, b.EvalSeq(a, a), 1, 1e-12, "blended normalized self")
	v := b.EvalSeq(a, []string{"mul", "div"})
	if v < 0 || v >= 1 {
		t.Fatalf("blended out of range: %g", v)
	}
}

func TestVocabularyAndNGramFeatures(t *testing.T) {
	seqs := [][]string{{"b", "a"}, {"a", "c"}}
	v := Vocabulary(seqs)
	if len(v) != 3 || v[0] != "a" {
		t.Fatalf("vocab %v", v)
	}
	x, names := NGramFeatures(seqs, 1)
	if len(names) != 3 || len(x) != 2 {
		t.Fatalf("features %v %v", names, x)
	}
	// Explicit feature dot product equals the spectrum kernel.
	k := Spectrum{N: 1}
	approx(t, linalg.Dot(x[0], x[1]), k.EvalSeq(seqs[0], seqs[1]), 1e-12, "explicit == implicit")
	// Bigram feature names join tokens.
	_, n2 := NGramFeatures([][]string{{"ld", "st"}}, 2)
	if len(n2) != 1 || n2[0] != "ld·st" {
		t.Fatalf("bigram names %v", n2)
	}
}

func BenchmarkSpectrumKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ops := []string{"ld", "st", "add", "sub", "mul", "br"}
	mk := func() []string {
		s := make([]string, 50)
		for i := range s {
			s[i] = ops[rng.Intn(len(ops))]
		}
		return s
	}
	a, c := mk(), mk()
	k := Spectrum{N: 3, Normalize: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.EvalSeq(a, c)
	}
}

func BenchmarkGram100RBF(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randVecs(rng, 100, 8)
	k := RBF{Gamma: 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Gram(k, x)
	}
}
