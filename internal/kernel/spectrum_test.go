package kernel_test

// Conformer for the interned spectrum kernel. refCounts/refRaw are the
// plain string-keyed histogram kernel the interned form replaced; on
// generated ISA programs the production kernel must equal it exactly,
// be exactly symmetric, give a PSD Gram matrix, and honour a spec other
// than the one that built its counts.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/linalg"
)

// refCounts builds the n-gram histograms of seq for n = 1..maxN, keyed by
// the NUL-joined n-gram.
func refCounts(seq []string, maxN int) []map[string]float64 {
	out := make([]map[string]float64, maxN)
	for n := 1; n <= maxN; n++ {
		m := map[string]float64{}
		for i := 0; i+n <= len(seq); i++ {
			key := ""
			for j := 0; j < n; j++ {
				key += seq[i+j] + "\x00"
			}
			m[key]++
		}
		out[n-1] = m
	}
	return out
}

func refDot(x, y map[string]float64) float64 {
	s := 0.0
	for k, v := range x {
		s += v * y[k]
	}
	return s
}

func refRaw(b kernel.BlendedSpectrum, x, y []map[string]float64) float64 {
	total := 0.0
	w := b.Lambda
	for n := 0; n < b.MaxN && n < len(x) && n < len(y); n++ {
		total += w * refDot(x[n], y[n])
		w *= b.Lambda
	}
	return total
}

func refEval(b kernel.BlendedSpectrum, x, y []map[string]float64) float64 {
	raw := refRaw(b, x, y)
	if !b.Normalize {
		return raw
	}
	nx, ny := refRaw(b, x, x), refRaw(b, y, y)
	if nx == 0 || ny == 0 {
		return 0
	}
	return raw / math.Sqrt(nx*ny)
}

// conformSeqs returns annotated and opcode-only token streams of generated
// programs, plus the edge cases: empty, and shorter than every n.
func conformSeqs() [][]string {
	seqs := [][]string{nil, {}, {"ld.a.r1"}, {"add", "add"}, {"add", "sub", "add"}}
	for _, tpl := range []isa.Template{isa.WideTemplate(), isa.DefaultTemplate()} {
		for _, p := range isa.NewGenerator(tpl, 11).Batch(12) {
			seqs = append(seqs, p.Tokens(), p.TokensPlain())
		}
	}
	return seqs
}

var conformSpecs = []kernel.BlendedSpectrum{
	{MaxN: 1, Lambda: 0.25, Normalize: true},
	{MaxN: 2, Lambda: 0.25, Normalize: true},
	{MaxN: 3, Lambda: 0.6, Normalize: true},
	{MaxN: 4, Lambda: 0.5, Normalize: false},
}

func TestSpectrumConformsToReference(t *testing.T) {
	seqs := conformSeqs()
	for _, spec := range conformSpecs {
		counts := make([]kernel.MultiCounts, len(seqs))
		ref := make([][]map[string]float64, len(seqs))
		for i, s := range seqs {
			counts[i] = spec.CountsMulti(s)
			ref[i] = refCounts(s, spec.MaxN)
		}
		g := make([][]float64, len(seqs))
		for i := range seqs {
			g[i] = make([]float64, len(seqs))
			for j := range seqs {
				g[i][j] = spec.EvalMulti(counts[i], counts[j])
				if want := refEval(spec, ref[i], ref[j]); g[i][j] != want {
					t.Fatalf("%+v: k(%d,%d) = %v, reference %v", spec, i, j, g[i][j], want)
				}
			}
			if v := spec.EvalSeq(seqs[i], seqs[0]); v != g[i][0] {
				t.Fatalf("%+v: EvalSeq(%d, empty) = %v, EvalMulti %v", spec, i, v, g[i][0])
			}
		}
		for i := range g {
			for j := range g {
				if g[i][j] != g[j][i] {
					t.Fatalf("%+v: k(%d,%d) = %v but k(%d,%d) = %v", spec, i, j, g[i][j], j, i, g[j][i])
				}
			}
		}
		if !kernel.IsPSD(linalg.FromRows(g), 1e-8) {
			t.Fatalf("%+v: Gram matrix not PSD", spec)
		}
	}
}

func TestSpectrumSingleLengthMatchesReference(t *testing.T) {
	seqs := conformSeqs()
	ref := make([][]map[string]float64, len(seqs))
	for i, s := range seqs {
		ref[i] = refCounts(s, 3)
	}
	for n := 1; n <= 3; n++ {
		for _, norm := range []bool{false, true} {
			k := kernel.Spectrum{N: n, Normalize: norm}
			for i := range seqs {
				for j := range seqs {
					x, y := ref[i][n-1], ref[j][n-1]
					want := refDot(x, y)
					if norm {
						if nx, ny := refDot(x, x), refDot(y, y); nx == 0 || ny == 0 {
							want = 0
						} else {
							want /= math.Sqrt(nx * ny)
						}
					}
					if got := k.EvalSeq(seqs[i], seqs[j]); got != want {
						t.Fatalf("%s n=%d: k(%d,%d) = %v, reference %v", k.Name(), n, i, j, got, want)
					}
				}
			}
		}
	}
}

// Counts built under one spec and evaluated under another must give the
// reference value for the evaluating spec over the levels the counts
// hold, never a self-product cached for the building spec.
func TestSpectrumMismatchedSpec(t *testing.T) {
	seqs := conformSeqs()
	for _, built := range conformSpecs {
		for _, eval := range conformSpecs {
			for i := 5; i < len(seqs); i += 7 {
				for j := 0; j < len(seqs); j += 5 {
					x, y := built.CountsMulti(seqs[i]), built.CountsMulti(seqs[j])
					got := eval.EvalMulti(x, y)
					if want := refEval(eval, refCounts(seqs[i], built.MaxN), refCounts(seqs[j], built.MaxN)); got != want {
						t.Fatalf("built %+v, eval %+v: k(%d,%d) = %v, reference %v", built, eval, i, j, got, want)
					}
					if built.MaxN >= eval.MaxN {
						if fresh := eval.EvalMulti(eval.CountsMulti(seqs[i]), eval.CountsMulti(seqs[j])); got != fresh {
							t.Fatalf("built %+v, eval %+v: k(%d,%d) = %v, own counts give %v", built, eval, i, j, got, fresh)
						}
					}
				}
			}
		}
	}
}

// Concurrent interning of overlapping, partly unseen vocabularies must
// give every goroutine the reference values (run under -race in CI).
func TestSpectrumConcurrentCounts(t *testing.T) {
	spec := kernel.BlendedSpectrum{MaxN: 4, Lambda: 0.5, Normalize: true}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			progs := isa.NewGenerator(isa.WideTemplate(), int64(100+g%2)).Batch(30)
			seqs := make([][]string, len(progs))
			for i, p := range progs {
				seqs[i] = append(p.Tokens(), fmt.Sprintf("uniq%d", g))
			}
			for i := 1; i < len(seqs); i++ {
				got := spec.EvalMulti(spec.CountsMulti(seqs[i]), spec.CountsMulti(seqs[i-1]))
				if want := refEval(spec, refCounts(seqs[i], 4), refCounts(seqs[i-1], 4)); got != want {
					errs <- fmt.Errorf("goroutine %d: k(%d,%d) = %v, reference %v", g, i, i-1, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkSpectrumEvalMulti is the novelty filter's steady-state pair:
// one kernel value on warm counts at the Figure 7 spec.
func BenchmarkSpectrumEvalMulti(b *testing.B) {
	spec := kernel.BlendedSpectrum{MaxN: 2, Lambda: 0.25, Normalize: true}
	progs := isa.NewGenerator(isa.WideTemplate(), 3).Batch(64)
	counts := make([]kernel.MultiCounts, len(progs))
	for i, p := range progs {
		counts[i] = spec.CountsMulti(p.Tokens())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalSink = spec.EvalMulti(counts[i%len(counts)], counts[(i*7+3)%len(counts)])
	}
}

var evalSink float64
