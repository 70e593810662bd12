package kernel

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// spectrumNgrams counts the n-grams tokenized while building histograms
// (the unit of tokenization cost), one atomic add per histogram build.
var spectrumNgrams = obs.GetCounter("kernel.spectrum_ngrams")

// SequenceKernel measures the similarity of two token sequences. It is the
// abstraction behind the paper's observation that a functional test (an
// assembly program) need not be converted into a vector: the kernel module
// encodes the domain knowledge of what makes two programs similar ([14]).
type SequenceKernel interface {
	// EvalSeq returns k(a, b) for two token sequences.
	EvalSeq(a, b []string) float64
	// Name identifies the kernel in reports.
	Name() string
}

// Spectrum is the n-gram spectrum kernel: each sequence is implicitly
// mapped to its histogram of contiguous n-grams and the kernel is the dot
// product of the histograms. Normalize makes it a cosine similarity, which
// keeps long programs from dominating short ones.
type Spectrum struct {
	N         int
	Normalize bool
}

// ngramCounts builds the string-keyed n-gram histogram of a token
// sequence, for the named features of NGramFeatures.
func (s Spectrum) ngramCounts(a []string) map[string]float64 {
	n := s.N
	if n < 1 {
		n = 1
	}
	m := make(map[string]float64)
	if len(a) < n {
		return m
	}
	for i := 0; i+n <= len(a); i++ {
		key := ""
		for j := 0; j < n; j++ {
			key += a[i+j] + "\x00"
		}
		m[key]++
	}
	spectrumNgrams.Add(int64(len(a) - n + 1))
	return m
}

// EvalSeq implements SequenceKernel.
func (s Spectrum) EvalSeq(a, b []string) float64 {
	n := max(s.N, 1)
	ca, cb := histograms(a, n)[n-1], histograms(b, n)[n-1]
	v := mergeDot(ca, cb)
	if !s.Normalize {
		return v
	}
	na := mergeDot(ca, ca)
	nb := mergeDot(cb, cb)
	if na == 0 || nb == 0 {
		return 0
	}
	return v / math.Sqrt(na*nb)
}

// Name implements SequenceKernel.
func (s Spectrum) Name() string {
	if s.Normalize {
		return "spectrum-norm"
	}
	return "spectrum"
}

// BlendedSpectrum sums spectrum kernels for n = 1..MaxN with geometric decay
// lambda^n, capturing both instruction-mix and short-idiom similarity.
type BlendedSpectrum struct {
	MaxN      int
	Lambda    float64
	Normalize bool
}

// EvalSeq implements SequenceKernel.
func (b BlendedSpectrum) EvalSeq(x, y []string) float64 {
	return b.EvalMulti(b.CountsMulti(x), b.CountsMulti(y))
}

// Name implements SequenceKernel.
func (b BlendedSpectrum) Name() string { return "blended-spectrum" }

// MultiCounts holds the n-gram histograms of one sequence for n=1..MaxN,
// built once by CountsMulti and reused by every EvalMulti on it. The zero
// value is the histogram of the empty sequence.
type MultiCounts struct {
	levels [][]gramCount // levels[n-1]: the n-gram histogram, sorted by ID
	// self is rawMulti(x, x) under the (maxN, lambda) that built x.
	self   float64
	maxN   int
	lambda float64
}

// gramCount is one entry of a sparse histogram: an interned n-gram and
// its number of occurrences.
type gramCount struct{ id, n int32 }

// CountsMulti precomputes histograms and the blended self-product for
// EvalMulti.
func (b BlendedSpectrum) CountsMulti(seq []string) MultiCounts {
	x := MultiCounts{levels: histograms(seq, b.MaxN), maxN: b.MaxN, lambda: b.Lambda}
	x.self = b.rawMulti(x, x)
	return x
}

// EvalMulti evaluates the blended kernel on precomputed histograms,
// honoring the Normalize flag. Counts built under another (MaxN, Lambda)
// are evaluated over the levels both hold, as if built by b.
func (b BlendedSpectrum) EvalMulti(x, y MultiCounts) float64 {
	raw := b.rawMulti(x, y)
	if !b.Normalize {
		return raw
	}
	nx := b.selfProduct(x)
	ny := b.selfProduct(y)
	if nx == 0 || ny == 0 {
		return 0
	}
	return raw / math.Sqrt(nx*ny)
}

func (b BlendedSpectrum) selfProduct(x MultiCounts) float64 {
	if x.maxN == b.MaxN && x.lambda == b.Lambda {
		return x.self
	}
	return b.rawMulti(x, x)
}

func (b BlendedSpectrum) rawMulti(x, y MultiCounts) float64 {
	total := 0.0
	w := b.Lambda
	for n := 0; n < b.MaxN && n < len(x.levels) && n < len(y.levels); n++ {
		total += w * mergeDot(x.levels[n], y.levels[n])
		w *= b.Lambda
	}
	return total
}

// mergeDot is the dot product of two histograms sorted by ID. Counts are
// small integers, so the integer sum is exact and equals the float64 sum
// of the products in any order: kernel values do not depend on which IDs
// the vocabulary handed out, nor in what order.
func mergeDot(a, b []gramCount) float64 {
	var s int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].id < b[j].id:
			i++
		case a[i].id > b[j].id:
			j++
		default:
			s += int64(a[i].n) * int64(b[j].n)
			i++
			j++
		}
	}
	return float64(s)
}

// histograms returns the n-gram histograms of seq for n = 1..maxN.
func histograms(seq []string, maxN int) [][]gramCount {
	if maxN < 1 {
		return nil
	}
	ids, total := internGrams(seq, maxN)
	spectrumNgrams.Add(int64(total))
	out := make([][]gramCount, maxN)
	buf := make([]gramCount, 0, total)
	for n, level := range ids {
		slices.Sort(level)
		start := len(buf)
		for i, id := range level {
			if i > 0 && id == level[i-1] {
				buf[len(buf)-1].n++
			} else {
				buf = append(buf, gramCount{id, 1})
			}
		}
		out[n] = buf[start:len(buf):len(buf)]
	}
	return out
}

// vocab interns tokens and n-grams to int32 IDs shared by every spectrum
// kernel in the process. An n-gram is keyed by the ID of its (n-1)-gram
// prefix and the ID of its last token, so interning never builds an
// n-gram string. Entries are never evicted: the table holds one entry per
// distinct token and per distinct n-gram seen, so it is bounded by the
// n-grams (n ≤ the largest MaxN in use) the token alphabet forms. The ISA
// token streams have a few hundred distinct tokens.
var vocab = struct {
	sync.Mutex
	tokens map[string]int32
	grams  map[uint64]int32
}{tokens: map[string]int32{}, grams: map[uint64]int32{}}

// internGrams returns the IDs of seq's n-grams in position order, one
// slice per n = 1..maxN, and their total number.
func internGrams(seq []string, maxN int) ([][]int32, int) {
	total := 0
	for n := 0; n < maxN && n < len(seq); n++ {
		total += len(seq) - n
	}
	ids := make([][]int32, maxN)
	buf := make([]int32, total)
	vocab.Lock()
	defer vocab.Unlock()
	for n := range ids {
		m := max(len(seq)-n, 0)
		ids[n], buf = buf[:m:m], buf[m:]
		for i := range ids[n] {
			if n == 0 {
				ids[n][i] = intern(vocab.tokens, seq[i])
			} else {
				ids[n][i] = intern(vocab.grams, uint64(uint32(ids[n-1][i]))<<32|uint64(uint32(ids[0][i+n])))
			}
		}
	}
	return ids, total
}

// intern returns key's ID in m, handing out the next unused ID on first
// sight. The caller holds the vocab lock.
func intern[K comparable](m map[K]int32, key K) int32 {
	id, ok := m[key]
	if !ok {
		id = int32(len(vocab.tokens) + len(vocab.grams))
		m[key] = id
	}
	return id
}

// Vocabulary returns the sorted distinct tokens across sequences; useful for
// building explicit feature views when a rule learner needs named features.
func Vocabulary(seqs [][]string) []string {
	set := map[string]bool{}
	for _, s := range seqs {
		for _, t := range s {
			set[t] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// NGramFeatures maps each sequence to an explicit (dense) n-gram count
// vector over the n-gram vocabulary of the corpus; feature names are the
// n-grams joined by "·". This is the "feature-based" view of the same
// knowledge the spectrum kernel encodes implicitly.
func NGramFeatures(seqs [][]string, n int) (x [][]float64, names []string) {
	sp := Spectrum{N: n}
	counts := make([]map[string]float64, len(seqs))
	vocab := map[string]bool{}
	for i, s := range seqs {
		counts[i] = sp.ngramCounts(s)
		for k := range counts[i] {
			vocab[k] = true
		}
	}
	keys := make([]string, 0, len(vocab))
	for k := range vocab {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	names = make([]string, len(keys))
	for i, k := range keys {
		names[i] = strings.ReplaceAll(strings.TrimSuffix(k, "\x00"), "\x00", "·")
	}
	x = make([][]float64, len(seqs))
	for i := range seqs {
		row := make([]float64, len(keys))
		for j, k := range keys {
			row[j] = counts[i][k]
		}
		x[i] = row
	}
	return x, names
}
