package repro_test

// Conformance acceptance suite (ISSUE 5). One registry drives
// everything: every learner in the repo is registered as a
// testkit.Conformer, and this file (a) sweeps the registry's
// property-based and metamorphic checks, (b) proves the differential
// scoring contract — serial vs batched vs decoded-artifact vs HTTP
// serving — on ≥50 generated cases per persisted model kind, (c) checks
// the cross-cutting validation invariants (fold partition,
// stratification), and (d) fails when a learner package exists without
// a registration, so the suite cannot silently go stale.
//
// Every failure report carries a testkit.Replay(seed, name, index)
// one-liner; the whole case derives from those three values, so the
// line alone reproduces it (see EXPERIMENTS.md, "Replaying conformance
// failures").

import (
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rules"
	"repro/internal/testkit"
	"repro/internal/tree"
)

// conformanceSeed is the fixed root seed for every sweep. Change it and
// every case in the suite changes; print it and any case can be
// replayed.
const conformanceSeed int64 = 20240806

// TestConformanceRegistryCoverage pins the registry's shape: all six
// persisted model kinds, the compiled approx-linear form of each kernel
// kind, plus the non-persisted learner families must be registered.
// This is the single table the rest of the suite iterates.
func TestConformanceRegistryCoverage(t *testing.T) {
	wantPersisted := []string{"svm/svc", "svm/oneclass", "stream/incremental", "linear/ridge",
		"gp", "tree", "rules/cn2sd",
		"svm/svc-approx", "svm/oneclass-approx", "gp-approx"}
	wantOther := []string{"knn", "bayes/naive", "cluster/kmeans", "neural/mlp",
		"semisup/labelprop", "imbalance/smote", "multivar/pls", "core/colmat",
		"maps", "isa/stress"}
	for _, name := range wantPersisted {
		c, ok := testkit.Lookup(name)
		if !ok {
			t.Errorf("persisted conformer %q not registered", name)
			continue
		}
		if !c.Persisted {
			t.Errorf("conformer %q must be marked Persisted (it has an artifact kind)", name)
		}
	}
	for _, name := range wantOther {
		if _, ok := testkit.Lookup(name); !ok {
			t.Errorf("conformer %q not registered", name)
		}
	}
}

// TestConformanceSweep runs every registered conformer's full contract
// — fit, invariants, metamorphic relations, and (for persisted kinds)
// the differential driver — over its generated case sweep.
func TestConformanceSweep(t *testing.T) {
	for _, c := range testkit.All() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, f := range c.Run(conformanceSeed, c.Cases*sweepScale) {
				t.Error(f.String())
			}
		})
	}
}

// TestConformanceDifferential is the scoring-path agreement sweep: for
// every persisted model kind, diffCases generated models (disjoint from
// the metamorphic sweep's indices) are fitted and pushed through every
// scoring path the repo offers — per-row, batched at 1/2/8 workers,
// marshal→decode→score, and HTTP serving — which must agree bit for
// bit.
func TestConformanceDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is the long pole; skipped with -short")
	}
	for _, c := range testkit.All() {
		if !c.Persisted {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < diffCases; i++ {
				idx := 1_000_000 + i // disjoint from the metamorphic sweep
				cs := c.Case(conformanceSeed, idx)
				f, err := c.Fit(cs)
				if err != nil {
					t.Fatalf("case %d: fit: %v\nreplay: %s", idx, err,
						testkit.ReplayHint(conformanceSeed, c.Name, idx))
				}
				if err := testkit.DiffPaths(f.Model, cs.Probes); err != nil {
					t.Fatalf("case %d: %v\nreplay: %s", idx, err,
						testkit.ReplayHint(conformanceSeed, c.Name, idx))
				}
			}
		})
	}
}

// TestConformanceFoldInvariants checks the validation-layer invariants
// the metamorphic registry cannot express per-learner: k-fold index
// sets partition the sample set, and stratified splits preserve class
// proportions.
func TestConformanceFoldInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(testkit.Mix(conformanceSeed, 1)))
	for _, n := range []int{10, 37, 100} {
		for _, k := range []int{2, 5, 10} {
			if k > n {
				continue
			}
			train, test := dataset.KFold(r, n, k)
			if err := testkit.CheckFoldPartition(train, test, n); err != nil {
				t.Errorf("KFold(n=%d, k=%d): %v", n, k, err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		d := dataset.TwoGaussians(r, 120, 3, 2.0, 1.0)
		train, test := d.StratifiedSplit(r, 0.7)
		if train.Len()+test.Len() != d.Len() {
			t.Fatalf("stratified split lost rows: %d + %d != %d", train.Len(), test.Len(), d.Len())
		}
		if err := testkit.CheckStratification(d, train, 0.7, 0.05); err != nil {
			t.Errorf("stratified split %d: %v", i, err)
		}
	}
}

// learnerEntryPoint matches the top-level declarations that make a
// package a learner for completeness purposes: Fit-prefixed
// constructors plus the named training entry points that don't follow
// the Fit convention.
var learnerEntryPoint = regexp.MustCompile(`(?m)^func (Fit\w*|CN2SD|KMeans|LabelPropagation|SelfTrain|SMOTE)\(`)

// completenessExcluded are internal packages that match
// learnerEntryPoint but are deliberately outside the conformance
// registry, with the reason on record. Removing an entry (or adding a
// new learner package) without registering a conformer fails
// TestConformanceCompleteness.
var completenessExcluded = map[string]string{
	"dataset":   "FitScaler is feature preprocessing, not a predictor",
	"transform": "PCA/ICA/KernelPCA are unsupervised feature transforms with their own algebraic tests",
}

// TestConformanceCompleteness scans internal/ for learner packages and
// fails if any of them has no registered conformer — the guarantee that
// a learner added in a future PR cannot dodge the suite.
func TestConformanceCompleteness(t *testing.T) {
	registered := map[string]bool{}
	for _, c := range testkit.All() {
		registered[c.Pkg] = true
	}

	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatalf("read internal/: %v", err)
	}
	foundLearner := false
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg := e.Name()
		if !packageHasLearner(t, filepath.Join("internal", pkg)) {
			continue
		}
		foundLearner = true
		if reason, excluded := completenessExcluded[pkg]; excluded {
			t.Logf("package %s excluded from conformance: %s", pkg, reason)
			continue
		}
		if !registered[pkg] {
			t.Errorf("package internal/%s declares a learner entry point but has no conformer; "+
				"register one in internal/testkit/conformers.go or add a documented exclusion", pkg)
		}
	}
	if !foundLearner {
		t.Fatal("completeness scan found no learner packages at all — the entry-point regexp is broken")
	}
	for pkg := range registered {
		if _, err := os.Stat(filepath.Join("internal", pkg)); err != nil {
			t.Errorf("conformer registered for non-existent package internal/%s", pkg)
		}
	}
}

func packageHasLearner(t *testing.T, dir string) bool {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	for _, f := range files {
		name := f.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if learnerEntryPoint.Match(src) {
			return true
		}
	}
	return false
}

// intoEntryPoint matches the destination-passing batch entry points the
// columnar core introduced: any exported method or function whose name
// ends in "Into". Each one bypasses the allocating wrapper the rest of
// the suite exercises, so each must be pinned by a named test or it can
// silently drift from its allocating twin.
var intoEntryPoint = regexp.MustCompile(`(?m)^func (?:\([^)]+\) )?([A-Z]\w*Into)\(`)

// coveredInto maps every pkg.Method Into entry point in internal/ to
// the test that pins it bit-for-bit against its allocating twin (or to
// the conformer exercising it through pooled buffers). Adding an Into
// method without extending this map fails
// TestConformanceIntoCompleteness; so does leaving a stale entry after
// deleting one.
var coveredInto = map[string]string{
	"linalg.MulInto":         "linalg.TestIntoVariantsMatchAllocating",
	"linalg.MulVecInto":      "linalg.TestIntoVariantsMatchAllocating",
	"linalg.ColInto":         "linalg.TestColInto",
	"linalg.PredictRowsInto": "TestPredictRowsIntoBothBranches (tree, rules, ridge: serial and parallel branches, 1/2/8 workers) + DiffPaths differential sweep (serial branch only: probe sets stay under the cutover) + alloc gate",
	"kernel.GramInto":        "kernel.TestIntoVariantsMatchAllocating",
	"kernel.CrossGramInto":   "core/colmat conformer (fresh vs recycled buffer) + kernel.TestIntoVariantsMatchAllocating",
	"kernel.WindowInto":      "kernel.TestIntoVariantsMatchAllocating + stream/incremental conformer",
	"svm.DecisionBatchInto":  "core/colmat conformer + DiffPaths differential sweep",
	"svm.PredictBatchInto":   "DiffPaths differential sweep (svm/svc, all worker counts)",
	"gp.PredictBatchInto":    "DiffPaths differential sweep (gp, all worker counts)",
	"approx.ScoreBatchInto":  "DiffPaths differential sweep (*-approx kinds) + alloc gate",
	"model.ScoreBatchInto":   "DiffPaths differential sweep (every persisted kind over Scorer); the alloc gate measures the Into methods it forwards to",
	"dataset.ColInto":        "delegates to linalg.ColInto; see linalg.TestColInto",
}

// TestConformanceIntoCompleteness scans internal/ for Into-suffixed
// batch entry points and fails when one exists without a coverage entry
// — the guarantee that a future zero-alloc path cannot ship without a
// test pinning it to its allocating twin.
func TestConformanceIntoCompleteness(t *testing.T) {
	found := map[string]bool{}
	scanInternalSources(t, func(pkg string, src []byte) {
		for _, m := range intoEntryPoint.FindAllSubmatch(src, -1) {
			found[pkg+"."+string(m[1])] = true
		}
	})
	if len(found) == 0 {
		t.Fatal("Into-entry-point scan found nothing — the regexp is broken")
	}
	for key := range found {
		if _, ok := coveredInto[key]; !ok {
			t.Errorf("Into entry point %s has no coverage entry; add a test pinning it "+
				"to its allocating twin and record it in coveredInto", key)
		}
	}
	for key := range coveredInto {
		if !found[key] {
			t.Errorf("coveredInto lists %s but no such entry point exists; remove the stale entry", key)
		}
	}
}

// derivedScoringForm matches the scoring forms that are derived once
// from a learner's row primitive instead of being written per learner:
// an exported allocating batch method, and a per-learner loop over a
// dataset's rows.
var derivedScoringForm = regexp.MustCompile(`(?m)^func \([^)]+\) ` +
	`([A-Z]\w*Batch\(\w+ \*linalg\.Matrix\) \[\]float64|[A-Z]\w*All\(\w+ \*dataset\.Dataset\))`)

// TestConformanceOneScoringPrimitive keeps each learner at one row
// primitive (Predict or Decision) plus at most one destination-passing
// Into batch method. Everything else is derived by the shared helpers,
// so a per-learner copy of them fails here.
func TestConformanceOneScoringPrimitive(t *testing.T) {
	scanInternalSources(t, func(pkg string, src []byte) {
		for _, m := range derivedScoringForm.FindAllSubmatch(src, -1) {
			t.Errorf("%s declares %s; call the Into form on a caller-allocated slice, "+
				"linalg.PredictRowsInto for a batch over Predict, or dataset.PredictAll "+
				"for a loop over a dataset's rows", pkg, m[1])
		}
	})
}

// TestPredictRowsIntoBothBranches drives the shared row-parallel helper
// across its cutover: 2×cutover+1 rows, NaN and ±Inf rows included, at
// 1, 2 and 8 workers, for each learner kind it serves. The output must
// be bit-identical to per-row Predict, and with more than one worker the
// parallel branch must actually run.
func TestPredictRowsIntoBothBranches(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	r := rand.New(rand.NewSource(testkit.Mix(conformanceSeed, 2)))
	dcls := testkit.GenClassification(r, 60, 4, 2.0)
	dreg := testkit.GenRegression(r, 60, 5, 0.3)

	cart, err := tree.Fit(dcls, tree.Config{MaxDepth: 6})
	if err != nil {
		t.Fatalf("fit tree: %v", err)
	}
	ruleList, err := rules.CN2SD(dcls, 1, rules.CN2SDConfig{})
	if err != nil {
		t.Fatalf("fit rules: %v", err)
	}
	ridge, err := linear.FitRidge(dreg, 0.1)
	if err != nil {
		t.Fatalf("fit ridge: %v", err)
	}
	n := 2*linalg.PredictRowsCutover + 1
	cases := []struct {
		name string
		p    linalg.RowPredictor
		d    *dataset.Dataset
	}{
		{"tree", cart, dcls},
		{"rules", &rules.RuleSet{Rules: ruleList, Target: 1, Default: 0}, dcls},
		{"ridge", ridge, dreg},
	}
	parallelRuns := obs.GetCounter("parallel.for_parallel")
	for _, c := range cases {
		adv := testkit.AdversarialRows(c.d.Dim(), true)
		probes := testkit.AppendRows(testkit.GenProbes(r, c.d, n-adv.Rows), adv)
		if probes.Rows != n {
			t.Fatalf("%s: %d probe rows, want %d", c.name, probes.Rows, n)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = c.p.Predict(probes.Row(i))
		}
		for _, w := range testkit.DiffWorkerCounts {
			old := parallel.SetWorkers(w)
			before := parallelRuns.Value()
			got := linalg.PredictRowsInto(probes, make([]float64, n), c.p)
			ranParallel := parallelRuns.Value() > before
			parallel.SetWorkers(old)
			if err := testkit.Exact.Compare(want, got); err != nil {
				t.Errorf("%s at %d workers: %v", c.name, w, err)
			}
			if ranParallel != (w > 1) {
				t.Errorf("%s at %d workers: parallel branch ran = %v", c.name, w, ranParallel)
			}
		}
	}
}

// scanInternalSources calls fn with the package name and source of
// every non-test Go file under internal/.
func scanInternalSources(t *testing.T, fn func(pkg string, src []byte)) {
	t.Helper()
	var walk func(dir string)
	walk = func(dir string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, e := range entries {
			path := filepath.Join(dir, e.Name())
			if e.IsDir() {
				walk(path)
				continue
			}
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			fn(filepath.Base(dir), src)
		}
	}
	walk("internal")
}

// TestConformanceReplay proves the reproduction contract: the
// (seed, name, index) triple a failure report prints is sufficient to
// re-derive and re-run the identical case, and replaying a passing case
// passes.
func TestConformanceReplay(t *testing.T) {
	for _, name := range []string{"linear/ridge", "tree"} {
		if err := testkit.Replay(conformanceSeed, name, 0); err != nil {
			t.Errorf("replay of passing case %s failed: %v", name, err)
		}
	}
	c, _ := testkit.Lookup("gp")
	a := c.Case(conformanceSeed, 2)
	b := c.Case(conformanceSeed, 2)
	if err := testkit.Exact.Compare(a.Train.X.Data, b.Train.X.Data); err != nil {
		t.Fatalf("case derivation is not pure: %v", err)
	}
}
