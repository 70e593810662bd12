package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

func randMatrix(rng *rand.Rand, rows, cols int) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// atWorkers evaluates fn once per worker count and asserts all results
// are element-wise identical to the workers=1 (serial) result.
func atWorkers(t *testing.T, name string, fn func() *linalg.Matrix) {
	t.Helper()
	old := parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)
	want := fn()
	for _, w := range []int{2, 4, 8} {
		parallel.SetWorkers(w)
		got := fn()
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s workers=%d: shape %dx%d != %dx%d", name, w, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, v := range got.Data {
			if v != want.Data[i] {
				t.Fatalf("%s workers=%d: element %d = %v, serial %v", name, w, i, v, want.Data[i])
			}
		}
	}
}

func TestGramParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randMatrix(rng, 120, 9)
	for _, k := range []Kernel{Linear{}, RBF{Gamma: 0.3}, Poly{Degree: 3, Gamma: 1, Coef0: 1}, HistogramIntersection{}} {
		atWorkers(t, "Gram/"+k.Name(), func() *linalg.Matrix { return Gram(k, x) })
	}
}

func TestCrossGramParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMatrix(rng, 90, 7)
	b := randMatrix(rng, 61, 7)
	atWorkers(t, "CrossGram", func() *linalg.Matrix { return CrossGram(RBF{Gamma: 0.5}, a, b) })
}

func TestCenterParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randMatrix(rng, 100, 6)
	g := Gram(RBF{Gamma: 0.2}, x)
	atWorkers(t, "Center", func() *linalg.Matrix { return Center(g) })
}

func TestNormalizedGramMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := randMatrix(rng, 80, 5)
	for _, k := range []Kernel{Linear{}, RBF{Gamma: 0.4}, Poly{Degree: 2, Gamma: 1}} {
		naive := Gram(Normalize{K: k}, x)
		fast := NormalizedGram(k, x)
		for i, v := range fast.Data {
			if v != naive.Data[i] {
				t.Fatalf("%s: NormalizedGram element %d = %v, naive %v", k.Name(), i, v, naive.Data[i])
			}
		}
		atWorkers(t, "NormalizedGram/"+k.Name(), func() *linalg.Matrix { return NormalizedGram(k, x) })
	}
}

func TestNormalizedGramZeroSelfSimilarity(t *testing.T) {
	// A zero row has k(x,x) = 0 under the linear kernel; both paths must
	// agree on the guarded zero.
	x := linalg.FromRows([][]float64{{0, 0}, {1, 2}, {3, 4}})
	naive := Gram(Normalize{K: Linear{}}, x)
	fast := NormalizedGram(Linear{}, x)
	for i := range fast.Data {
		if fast.Data[i] != naive.Data[i] {
			t.Fatalf("element %d = %v, naive %v", i, fast.Data[i], naive.Data[i])
		}
	}
}

// --- benchmarks ------------------------------------------------------

// benchAtWorkers runs fn as serial-vs-parallel sub-benchmarks.
func benchAtWorkers(b *testing.B, fn func(b *testing.B)) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			old := parallel.SetWorkers(w)
			defer parallel.SetWorkers(old)
			fn(b)
		})
	}
}

func BenchmarkGram(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMatrix(rng, 500, 16)
	k := RBF{Gamma: 0.25}
	benchAtWorkers(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = Gram(k, x)
		}
	})
}

func BenchmarkCrossGram(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 500, 16)
	c := randMatrix(rng, 300, 16)
	k := RBF{Gamma: 0.25}
	benchAtWorkers(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = CrossGram(k, a, c)
		}
	})
}

func BenchmarkNormalizedGram(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randMatrix(rng, 300, 16)
	k := Poly{Degree: 2, Gamma: 1}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Gram(Normalize{K: k}, x)
		}
	})
	b.Run("precomputed-diag", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = NormalizedGram(k, x)
		}
	})
}
