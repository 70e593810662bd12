package tree_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps/survey"
	"repro/internal/dataset"
	"repro/internal/imbalance"
	"repro/internal/linalg"
	"repro/internal/mfgtest"
	"repro/internal/tree"
)

// The CART golden pins every node of the trees and forests the paper's
// experiments grow — split feature, threshold and leaf value as exact
// float64 bits, plus the sample count — and the Section 2.4 imbalance
// study's full result. Any change to split search, tie handling or the
// forest's rng consumption shows up here as a byte diff. Regenerate only
// when a tree change is an intended, reviewed decision:
//
//	go test ./internal/tree -run TestCARTGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/cart_golden.txt from current code")

var goldenPath = filepath.Join("testdata", "cart_golden.txt")

// writeNode serialises n in preorder, one node per line.
func writeNode(b *bytes.Buffer, n *tree.Node) {
	if n.Leaf {
		fmt.Fprintf(b, "L %x %d\n", math.Float64bits(n.Value), n.N)
		return
	}
	fmt.Fprintf(b, "S %d %x %d\n", n.Feature, math.Float64bits(n.Threshold), n.N)
	writeNode(b, n.Left)
	writeNode(b, n.Right)
}

func writeForest(b *bytes.Buffer, f *tree.Forest) {
	for i, t := range f.Trees {
		fmt.Fprintf(b, "tree %d\n", i)
		writeNode(b, t.Root)
	}
}

// imbalanceForest rebuilds the Section 2.4 SMOTE + random-forest model
// exactly as survey.ImbalanceStudy does, drawing from the same rng stream.
func imbalanceForest(seed int64, lot int) (*tree.Forest, error) {
	rng := rand.New(rand.NewSource(seed + 1))
	scen := mfgtest.NewReturnsScenario(12)
	train, trainRets := scen.SampleLot(rng, lot, 0)
	scen.SampleLot(rng, lot, lot) // the evaluation lot advances rng
	known := trainRets
	if len(known) > 3 {
		known = known[:3]
	}
	y := make([]float64, len(train))
	for _, i := range known {
		y[i] = 1
	}
	d := dataset.MustNew(mfgtest.Matrix(train), y, scen.Model.Names)
	bal, err := imbalance.SMOTE(rng, d, 3)
	if err != nil {
		return nil, err
	}
	return tree.FitForest(rng, bal, tree.ForestConfig{NTrees: 30, MaxDepth: 10})
}

// quantized3Class is a tie-heavy 3-class set: features rounded to a few
// levels, labels {-1, 2, 5}.
func quantized3Class(seed int64, n, dim int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, dim)
	y := make([]float64, n)
	labels := []float64{-1, 2, 5}
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < dim; j++ {
			v := math.Round(rng.NormFloat64()*2) / 2
			x.Set(i, j, v)
			s += v
		}
		c := 0
		if s > 0.5 {
			c = 1
		}
		if s > 2 || rng.Float64() < 0.1 {
			c = 2
		}
		y[i] = labels[c]
	}
	return dataset.MustNew(x, y, nil)
}

func TestCARTGolden(t *testing.T) {
	var got bytes.Buffer
	header := func(name string) { fmt.Fprintf(&got, "case %s\n", name) }

	for _, c := range []struct {
		seed int64
		lot  int
	}{{1, 15000}, {1, 12000}, {2, 12000}} {
		f, err := imbalanceForest(c.seed, c.lot)
		if err != nil {
			t.Fatal(err)
		}
		header(fmt.Sprintf("imbalance-forest seed=%d lot=%d", c.seed, c.lot))
		writeForest(&got, f)
		res, err := survey.ImbalanceStudy(c.seed, c.lot)
		if err != nil {
			t.Fatal(err)
		}
		header(fmt.Sprintf("imbalance-study seed=%d lot=%d", c.seed, c.lot))
		fmt.Fprintf(&got, "%+v\n", *res)
	}

	{ // BenchmarkTreeFit500x8's tree.
		d := dataset.TwoGaussians(rand.New(rand.NewSource(8)), 250, 8, 2, 1)
		tr, err := tree.Fit(d, tree.Config{MaxDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		header("treefit-500x8")
		writeNode(&got, tr.Root)
	}

	for _, nTrain := range []int{48, 160} { // modelzoo's XOR tree
		d := dataset.XOR(rand.New(rand.NewSource(42+505)), nTrain/4, 0.35)
		tr, err := tree.Fit(d, tree.Config{MaxDepth: 6, MinLeaf: 2})
		if err != nil {
			t.Fatal(err)
		}
		header(fmt.Sprintf("modelzoo-xor n=%d", nTrain))
		writeNode(&got, tr.Root)
	}

	q := quantized3Class(11, 300, 4)
	for minLeaf := 1; minLeaf <= 3; minLeaf++ {
		tr, err := tree.Fit(q, tree.Config{MaxDepth: 12, MinLeaf: minLeaf})
		if err != nil {
			t.Fatal(err)
		}
		header(fmt.Sprintf("quantized-3class minleaf=%d", minLeaf))
		writeNode(&got, tr.Root)
	}
	{
		f, err := tree.FitForest(rand.New(rand.NewSource(12)), q, tree.ForestConfig{NTrees: 5, MaxDepth: 8, MinLeaf: 2})
		if err != nil {
			t.Fatal(err)
		}
		header("quantized-3class forest")
		writeForest(&got, f)
	}

	{ // Tie-free regression: leaf means must stay bit-identical.
		rng := rand.New(rand.NewSource(13))
		d := dataset.NoisySine(rng, 200, 0.15)
		f, err := tree.FitForest(rng, d, tree.ForestConfig{NTrees: 5, MaxDepth: 6, Regression: true})
		if err != nil {
			t.Fatal(err)
		}
		header("noisysine regression forest")
		writeForest(&got, f)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, got.Len())
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("CART output differs from %s at line %d:\n got: %.300s\nwant: %.300s\n"+
				"If the change is intentional, re-baseline with -update-golden.", goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("CART output has %d lines, %s has %d", len(gl), goldenPath, len(wl))
}
