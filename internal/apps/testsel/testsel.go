// Package testsel implements the paper's novel-test-selection application
// (Figure 7, refs [14],[27]): a one-class SVM over an n-gram spectrum
// kernel filters the constrained-random test stream, so that only tests
// novel with respect to everything already simulated are sent to the
// (expensive) simulator. Redundant tests are dropped, reaching the same
// functional coverage with a small fraction of the simulation effort.
package testsel

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/svm"
)

// Figure 7 metrics. testsel.cycles_saved is the headline number of the
// experiment — simulator cycles the novelty filter avoided relative to
// the unfiltered baseline — promoted from a local variable to a
// first-class metric so every manifest carries it. The kernel-row
// counter measures the filter's own cost (the paper's trade: cheap
// kernel evaluations for expensive simulation).
var (
	tsExamined   = obs.GetCounter("testsel.tests_examined")
	tsSimulated  = obs.GetCounter("testsel.tests_simulated")
	tsKernelRows = obs.GetCounter("testsel.kernel_row_evals")
	tsRefits     = obs.GetCounter("testsel.refits")
	tsCycles     = obs.GetCounter("testsel.cycles_saved")
	tsGoldenTime = obs.GetHistogram("testsel.golden_pass_ns")
	tsFilterTime = obs.GetHistogram("testsel.filter_pass_ns")
)

// kernelRowCutover keeps short kernel-row evaluations serial. Each entry
// is one merge-join per n-gram length over interned histograms (tens of
// ns), so a row at the cutover is a few µs: about what handing it to the
// pool costs. A larger cutover spends less CPU but more wall time (512
// measured ≈15% of each on a 2-vCPU host); 64 keeps the wall time.
const kernelRowCutover = 64

// Config controls the experiment.
type Config struct {
	Template   isa.Template
	Seed       int64
	MaxTests   int     // randomizer stream length, default 6000
	NGram      int     // blended spectrum max n-gram length, default 2
	Lambda     float64 // blended spectrum decay, default 0.25 (unigram-dominant)
	Nu         float64 // one-class SVM nu, default 0.1
	RefitEvery int     // refit the detector every k accepted tests, default 25
	WarmUp     int     // tests always simulated before the first model, default 30
	// PlainTokens ablates the domain knowledge in the kernel: the filter
	// sees opcode-only token streams instead of the annotated ones.
	PlainTokens bool
}

func (c *Config) defaults() {
	if c.MaxTests <= 0 {
		c.MaxTests = 6000
	}
	if c.NGram <= 0 {
		c.NGram = 2
	}
	if c.Lambda <= 0 || c.Lambda >= 1 {
		c.Lambda = 0.25
	}
	if c.Nu <= 0 || c.Nu > 1 {
		c.Nu = 0.1
	}
	if c.RefitEvery <= 0 {
		c.RefitEvery = 25
	}
	if c.WarmUp <= 0 {
		c.WarmUp = 30
	}
	if c.Template.Len == 0 {
		c.Template = isa.WideTemplate()
	}
}

// CurvePoint samples a coverage progression.
type CurvePoint struct {
	Simulated int // tests simulated so far
	Bins      int // distinct coverage bins hit
}

// Result is the Figure 7 outcome.
type Result struct {
	TargetBins        int     // coverage of the full stream (the "maximum coverage")
	BaselineTests     int     // simulations the unfiltered flow needs to reach the target
	SelectedSimulated int     // simulations the filtered flow needed
	StreamConsumed    int     // randomizer tests examined by the filter
	SelectedBins      int     // coverage the filtered flow reached
	SavingFrac        float64 // 1 - selected/baseline
	BaselineCycles    int64   // simulated cycles, unfiltered
	SelectedCycles    int64   // simulated cycles, filtered
	BaselineCurve     []CurvePoint
	SelectedCurve     []CurvePoint
}

// String renders the paper-style summary.
func (r *Result) String() string {
	return fmt.Sprintf(
		"max coverage: %d bins\nwithout selection: %d tests simulated\nwith novel test selection: %d tests simulated (%d examined)\nsaving: %.1f%% of simulation (%d -> %d cycles)",
		r.TargetBins, r.BaselineTests, r.SelectedSimulated, r.StreamConsumed,
		100*r.SavingFrac, r.BaselineCycles, r.SelectedCycles)
}

// Run executes the experiment: it materializes the randomizer stream,
// measures how many tests the unfiltered flow must simulate to reach the
// stream's full coverage, then replays the same stream through the
// novelty filter.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	gen := isa.NewGenerator(cfg.Template, cfg.Seed)
	stream := gen.Batch(cfg.MaxTests)

	// Golden pass: simulate everything once to know the reachable coverage
	// and the baseline progression. The batch is striped across the worker
	// pool (the paper's point that candidate simulation is the dominant
	// cost); the merge stays serial in stream order.
	goldenTimer := tsGoldenTime.Start()
	covs, cycles := isa.SimulateBatch(stream)
	var total isa.Coverage
	for i := range stream {
		total.Merge(covs[i])
	}
	goldenTimer.Stop()
	target := total.Count()
	if target == 0 {
		return nil, errors.New("testsel: stream reaches no coverage")
	}

	res := &Result{TargetBins: target}

	// Baseline: simulate in stream order until the target is reached.
	var acc isa.Coverage
	for i := range stream {
		acc.Merge(covs[i])
		res.BaselineCycles += cycles[i]
		if sampled(i + 1) {
			res.BaselineCurve = append(res.BaselineCurve, CurvePoint{i + 1, acc.Count()})
		}
		if acc.Count() == target {
			res.BaselineTests = i + 1
			break
		}
	}
	if res.BaselineTests == 0 {
		res.BaselineTests = len(stream)
	}

	// Filtered flow. The randomizer is endless: after the materialized
	// stream is exhausted the filter keeps drawing fresh tests (up to
	// streamBudget), simulating only the novel ones.
	m := isa.NewMachine()
	spec := kernel.BlendedSpectrum{MaxN: cfg.NGram, Lambda: cfg.Lambda, Normalize: true}
	var accepted []kernel.MultiCounts
	var gram [][]float64 // incrementally grown kernel matrix over accepted
	var detector *svm.OneClassGram
	modelN := 0 // accepted-prefix length the detector was fit on
	var sel isa.Coverage
	refit := func() error {
		tsRefits.Inc()
		var err error
		detector, err = svm.FitOneClassGram(gram, svm.OneClassConfig{Nu: cfg.Nu, MaxIters: 500})
		if err == nil {
			modelN = len(accepted)
		}
		return err
	}

	// Idiom vocabulary of the simulated set: a test is trivially novel when
	// it contains a token never simulated before, or a same-base
	// memory-op idiom class never simulated before. Both vocabularies are
	// bounded, so this component accepts a bounded number of tests; the
	// one-class SVM handles distributional novelty beyond them.
	seenTok := map[string]bool{}
	seenIdiom := map[string]bool{}

	// Examining a randomizer test is ~1000x cheaper than simulating it, so
	// the filter may consume well past the baseline stream.
	streamBudget := 8 * len(stream)
	sinceRefit := 0
	filterTimer := tsFilterTime.Start()
	for i := 0; i < streamBudget; i++ {
		tsExamined.Inc()
		var prog isa.Program
		var cov *isa.Coverage
		var cyc int64
		if i < len(stream) {
			prog, cov, cyc = stream[i], covs[i], cycles[i]
		} else {
			prog = gen.Next()
		}
		res.StreamConsumed = i + 1
		var toks []string
		if cfg.PlainTokens {
			toks = prog.TokensPlain()
		} else {
			toks = prog.Tokens()
		}
		counts := spec.CountsMulti(toks)
		simulate := false
		if len(accepted) < cfg.WarmUp || detector == nil {
			simulate = true
		} else if hasUnseen(toks, seenTok, seenIdiom) {
			simulate = true
		} else {
			// One kernel row against every accepted test — the O(n) inner
			// loop of the filter, striped across the worker pool (each slot
			// written by exactly one worker, so the row is deterministic).
			kx := make([]float64, modelN)
			parallel.ForN(modelN, kernelRowCutover, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					kx[j] = spec.EvalMulti(counts, accepted[j])
				}
			})
			tsKernelRows.Add(int64(modelN))
			simulate = detector.Novel(kx)
		}
		if !simulate {
			continue
		}
		tsSimulated.Inc()
		recordVocab(toks, seenTok, seenIdiom)
		if cov == nil {
			cov = m.Run(prog)
			cyc = m.Cycles
		}
		// Grow the kernel matrix by one row/column. Entries and the
		// per-row appends touch disjoint slices, so the growth loop stripes
		// race-free across the pool.
		n := len(accepted)
		row := make([]float64, n+1)
		parallel.ForN(n, kernelRowCutover, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				row[j] = spec.EvalMulti(counts, accepted[j])
				gram[j] = append(gram[j], row[j])
			}
		})
		row[n] = spec.EvalMulti(counts, counts)
		tsKernelRows.Add(int64(n + 1))
		gram = append(gram, row)
		accepted = append(accepted, counts)

		sel.Merge(cov)
		res.SelectedCycles += cyc
		res.SelectedCurve = append(res.SelectedCurve, CurvePoint{len(accepted), sel.Count()})
		sinceRefit++
		if len(accepted) >= cfg.WarmUp && (detector == nil || sinceRefit >= cfg.RefitEvery) {
			if err := refit(); err != nil {
				return nil, err
			}
			sinceRefit = 0
		}
		if sel.Count() == target {
			break
		}
	}
	filterTimer.Stop()
	res.SelectedSimulated = len(accepted)
	res.SelectedBins = sel.Count()
	if res.BaselineTests > 0 {
		res.SavingFrac = 1 - float64(res.SelectedSimulated)/float64(res.BaselineTests)
	}
	tsCycles.Add(res.BaselineCycles - res.SelectedCycles)
	return res, nil
}

// idioms extracts the same-base adjacent memory-op idiom classes of a
// token stream: (op1, op2, base) for consecutive memory accesses through
// the same base register. These are the forwarding/locality behaviours the
// load-store unit reacts to.
func idioms(toks []string) []string {
	var out []string
	for j := 0; j+1 < len(toks); j++ {
		a, b := toks[j], toks[j+1]
		ba, bb := tokenBase(a), tokenBase(b)
		if ba == "" || ba != bb {
			continue
		}
		out = append(out, tokenOp(a)+">"+tokenOp(b)+"@"+ba)
	}
	return out
}

func tokenOp(t string) string {
	if i := strings.IndexByte(t, '.'); i > 0 {
		return t[:i]
	}
	return t
}

func tokenBase(t string) string {
	for _, f := range strings.Split(t, ".") {
		if len(f) >= 2 && f[0] == 'r' && f[1] >= '0' && f[1] <= '9' {
			return f
		}
	}
	return ""
}

func hasUnseen(toks []string, seenTok, seenIdiom map[string]bool) bool {
	for _, t := range toks {
		if !seenTok[t] {
			return true
		}
	}
	for _, id := range idioms(toks) {
		if !seenIdiom[id] {
			return true
		}
	}
	return false
}

func recordVocab(toks []string, seenTok, seenIdiom map[string]bool) {
	for _, t := range toks {
		seenTok[t] = true
	}
	for _, id := range idioms(toks) {
		seenIdiom[id] = true
	}
}

// sampled thins the baseline curve to keep reports small.
func sampled(i int) bool {
	switch {
	case i <= 100:
		return i%10 == 0
	case i <= 1000:
		return i%100 == 0
	default:
		return i%500 == 0
	}
}
