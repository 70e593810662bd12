package tree

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/validate"
)

func TestTreeFitsSimpleRule(t *testing.T) {
	// y = 1 iff x0 > 0.5; one split should suffice.
	rows := [][]float64{{0.1, 9}, {0.2, 8}, {0.3, 7}, {0.7, 1}, {0.8, 2}, {0.9, 3}}
	y := []float64{0, 0, 0, 1, 1, 1}
	d := dataset.FromRows(rows, y)
	tr, err := Fit(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := validate.Accuracy(tr.PredictAll(d), d.Y); acc != 1 {
		t.Fatalf("accuracy %g", acc)
	}
	if tr.Depth() != 1 || tr.Leaves() != 2 {
		t.Fatalf("expected a stump, got depth=%d leaves=%d", tr.Depth(), tr.Leaves())
	}
	if tr.Root.Feature != 0 {
		t.Fatalf("split feature %d", tr.Root.Feature)
	}
	if tr.Root.Threshold < 0.3 || tr.Root.Threshold > 0.7 {
		t.Fatalf("threshold %g", tr.Root.Threshold)
	}
}

func TestTreeXOR(t *testing.T) {
	// XOR needs depth >= 2; a linear model can't do it, a tree can.
	rng := rand.New(rand.NewSource(1))
	d := dataset.XOR(rng, 50, 0.2)
	tr, err := Fit(d, Config{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if acc := validate.Accuracy(tr.PredictAll(d), d.Y); acc < 0.97 {
		t.Fatalf("XOR accuracy %g", acc)
	}
	if tr.Depth() < 2 {
		t.Fatal("XOR requires depth >= 2")
	}
}

func TestTreeDepthLimitAndMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := dataset.TwoGaussians(rng, 200, 4, 1, 1.5) // overlapping classes
	tr, _ := Fit(d, Config{MaxDepth: 2})
	if tr.Depth() > 2 {
		t.Fatalf("depth %d exceeds limit", tr.Depth())
	}
	tr2, _ := Fit(d, Config{MaxDepth: 30, MinLeaf: 50})
	var check func(n *Node)
	check = func(n *Node) {
		if n == nil {
			return
		}
		if n.Leaf && n.N < 50 {
			t.Fatalf("leaf with %d < MinLeaf samples", n.N)
		}
		check(n.Left)
		check(n.Right)
	}
	check(tr2.Root)
}

func TestRegressionTree(t *testing.T) {
	// Step function y = 0 for x<0, 10 for x>=0.
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range rows {
		x := rng.Float64()*4 - 2
		rows[i] = []float64{x}
		if x >= 0 {
			y[i] = 10
		}
	}
	d := dataset.FromRows(rows, y)
	tr, err := Fit(d, Config{Regression: true, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{-1}); math.Abs(got) > 0.5 {
		t.Fatalf("left value %g", got)
	}
	if got := tr.Predict([]float64{1}); math.Abs(got-10) > 0.5 {
		t.Fatalf("right value %g", got)
	}
}

func TestTreeEmptyAndPureData(t *testing.T) {
	if _, err := Fit(dataset.FromRows(nil, nil), Config{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	// Pure labels -> single leaf.
	d := dataset.FromRows([][]float64{{1}, {2}, {3}}, []float64{1, 1, 1})
	tr, _ := Fit(d, Config{})
	if !tr.Root.Leaf || tr.Root.Value != 1 {
		t.Fatal("pure dataset should give one leaf")
	}
}

func TestDumpAndImportance(t *testing.T) {
	rows := [][]float64{{0, 1}, {0, 2}, {1, 1}, {1, 2}}
	y := []float64{0, 0, 1, 1}
	tr, _ := Fit(dataset.FromRows(rows, y), Config{})
	s := tr.Dump(func(j int) string { return []string{"alpha", "beta"}[j] })
	if !strings.Contains(s, "alpha") {
		t.Fatalf("dump should name split feature: %s", s)
	}
	imp := tr.FeatureImportance(2)
	if imp[0] <= imp[1] {
		t.Fatalf("importance should favour feature 0: %v", imp)
	}
	if math.Abs(imp[0]+imp[1]-1) > 1e-12 {
		t.Fatalf("importances should sum to 1: %v", imp)
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := dataset.TwoGaussians(rng, 150, 8, 1.2, 1.5)
	test := dataset.TwoGaussians(rng, 400, 8, 1.2, 1.5)
	single, _ := Fit(train, Config{MaxDepth: 12})
	forest, err := FitForest(rng, train, ForestConfig{NTrees: 40, MaxDepth: 12})
	if err != nil {
		t.Fatal(err)
	}
	sAcc := validate.Accuracy(single.PredictAll(test), test.Y)
	fAcc := validate.Accuracy(forest.PredictAll(test), test.Y)
	if fAcc < sAcc-0.02 {
		t.Fatalf("forest (%g) should not lose badly to single tree (%g)", fAcc, sAcc)
	}
	if fAcc < 0.7 {
		t.Fatalf("forest accuracy too low: %g", fAcc)
	}
}

func TestForestRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := dataset.Friedman1(rng, 400, 8, 0.5)
	tr, te := d.Split(rng, 0.75)
	f, err := FitForest(rng, tr, ForestConfig{NTrees: 30, Regression: true, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	r2 := validate.R2(f.PredictAll(te), te.Y)
	if r2 < 0.6 {
		t.Fatalf("forest regression R2 %g", r2)
	}
}

func TestForestEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := FitForest(rng, dataset.FromRows(nil, nil), ForestConfig{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestForestImportanceFindsInformativeFeatures(t *testing.T) {
	// Only feature 0 is informative.
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 300)
	y := make([]float64, 300)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if rows[i][0] > 0 {
			y[i] = 1
		}
	}
	d := dataset.FromRows(rows, y)
	f, _ := FitForest(rng, d, ForestConfig{NTrees: 25, MaxFeatures: 2})
	imp := f.FeatureImportance(3)
	if imp[0] < imp[1] || imp[0] < imp[2] {
		t.Fatalf("importance should favour informative feature: %v", imp)
	}
}

func TestFitRejectsBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := dataset.TwoGaussians(rng, 25, 3, 2, 1)
		d.X.Set(7, 1, bad)
		if tr, err := Fit(d, Config{}); err == nil {
			t.Fatalf("Fit accepted feature %v (tree valid: %v)", bad, tr.Validate(3))
		}
		if _, err := FitForest(rng, d, ForestConfig{NTrees: 3}); err == nil {
			t.Fatalf("FitForest accepted feature %v", bad)
		}
		r := dataset.Friedman1(rng, 30, 5, 0.5)
		r.Y[4] = bad
		if _, err := Fit(r, Config{Regression: true}); err == nil {
			t.Fatalf("regression Fit accepted label %v", bad)
		}
		if _, err := FitForest(rng, r, ForestConfig{NTrees: 3, Regression: true}); err == nil {
			t.Fatalf("regression FitForest accepted label %v", bad)
		}
	}
	unlabelled := dataset.TwoGaussians(rng, 5, 2, 2, 1)
	unlabelled.Y = nil
	if _, err := Fit(unlabelled, Config{}); err == nil {
		t.Fatal("Fit accepted a dataset without labels")
	}
}

// TestGiniSumsInLabelOrder pins the node impurity to the ascending-label
// formula. The counts {-1:1, 2:1, 5:7} round differently when the terms
// are subtracted in another order, so summing them in map order (as an
// earlier version did) gave a value that changed between runs.
func TestGiniSumsInLabelOrder(t *testing.T) {
	p := func(c float64) float64 { return (c / 9) * (c / 9) }
	want := 1 - p(1) - p(1) - p(7)
	if other := 1 - p(7) - p(1) - p(1); other == want {
		t.Fatal("counts no longer discriminate summation order")
	}
	y := []float64{5, 5, -1, 5, 5, 2, 5, 5, 5}
	rows := make([][]float64, len(y))
	for i := range rows {
		rows[i] = []float64{float64(i)}
	}
	rng := rand.New(rand.NewSource(10))
	for rep := 0; rep < 100; rep++ {
		rng.Shuffle(len(y), func(i, j int) { y[i], y[j] = y[j], y[i] })
		g, err := newGrower(dataset.FromRows(rows, y), false)
		if err != nil {
			t.Fatal(err)
		}
		g.cfg = Config{MinLeaf: 1, MaxDepth: 1}
		imp, value := g.stats(g.order[0])
		if math.Float64bits(imp) != math.Float64bits(want) || value != 5 {
			t.Fatalf("rep %d: impurity %v value %v, want %v and 5", rep, imp, value, want)
		}
	}
}

func BenchmarkTreeFit500x8(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	d := dataset.TwoGaussians(rng, 250, 8, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(d, Config{MaxDepth: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFit grows the Section 2.4 forest shape — 30 trees of
// depth 10 over a 2-class, 12-feature set — on overlapping classes, so
// trees grow to full depth. -short drops to 1000 rows for CI.
func BenchmarkForestFit(b *testing.B) {
	perClass := 5000
	if testing.Short() {
		perClass = 500
	}
	d := dataset.TwoGaussians(rand.New(rand.NewSource(14)), perClass, 12, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitForest(rand.New(rand.NewSource(int64(i))), d, ForestConfig{NTrees: 30, MaxDepth: 10}); err != nil {
			b.Fatal(err)
		}
	}
}
