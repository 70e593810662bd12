package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// refFit is the per-node-sort CART induction the presorted grower
// replaced, kept as a reference: every node copies its rows, re-sorts them
// on each candidate feature and sweeps. Only the impurity differs from the
// original, which summed Gini terms in map order and so could move by one
// ulp between runs; here it sums them in ascending label order, as the
// grower does, so the reference is deterministic.
func refFit(d *dataset.Dataset, cfg Config) *Node {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 10
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{Config: cfg}
	return t.refGrow(d, idx, 0)
}

// refFitForest is FitForest over refFit on materialised bootstrap sets,
// drawing from rng in the same order. It returns each tree's root and
// bootstrap set.
func refFitForest(rng *rand.Rand, d *dataset.Dataset, cfg ForestConfig) ([]*Node, []*dataset.Dataset) {
	n := d.Len()
	var roots []*Node
	var boots []*dataset.Dataset
	for t := 0; t < cfg.NTrees; t++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		boot := d.Subset(idx)
		roots = append(roots, refFit(boot, Config{
			MaxDepth:    cfg.MaxDepth,
			MinLeaf:     cfg.MinLeaf,
			Regression:  cfg.Regression,
			MaxFeatures: cfg.MaxFeatures,
			seedFeats:   rng.Perm,
		}))
		boots = append(boots, boot)
	}
	return roots, boots
}

func (t *Tree) refLeafValue(d *dataset.Dataset, idx []int) float64 {
	if t.Config.Regression {
		s := 0.0
		for _, i := range idx {
			s += d.Y[i]
		}
		return s / float64(len(idx))
	}
	counts := map[int]int{}
	for _, i := range idx {
		counts[int(d.Y[i])]++
	}
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return float64(best)
}

func (t *Tree) refImpurity(d *dataset.Dataset, idx []int) float64 {
	if t.Config.Regression {
		mean := 0.0
		for _, i := range idx {
			mean += d.Y[i]
		}
		mean /= float64(len(idx))
		s := 0.0
		for _, i := range idx {
			dd := d.Y[i] - mean
			s += dd * dd
		}
		return s / float64(len(idx))
	}
	counts := map[int]int{}
	for _, i := range idx {
		counts[int(d.Y[i])]++
	}
	labels := make([]int, 0, len(counts))
	for c := range counts {
		labels = append(labels, c)
	}
	slices.Sort(labels)
	g := 1.0
	n := float64(len(idx))
	for _, c := range labels {
		p := float64(counts[c]) / n
		g -= p * p
	}
	return g
}

func (t *Tree) refGrow(d *dataset.Dataset, idx []int, depth int) *Node {
	node := &Node{N: len(idx)}
	imp := t.refImpurity(d, idx)
	if depth >= t.Config.MaxDepth || len(idx) < 2*t.Config.MinLeaf || imp < 1e-12 {
		node.Leaf = true
		node.Value = t.refLeafValue(d, idx)
		return node
	}
	feats := t.candidateFeatures(d.Dim())
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	var bestLeft, bestRight []int
	for _, f := range feats {
		thr, gain, left, right := t.refBestSplitOnFeature(d, idx, f, imp)
		if gain > bestGain {
			bestFeat, bestThr, bestGain = f, thr, gain
			bestLeft, bestRight = left, right
		}
	}
	if bestFeat < 0 {
		node.Leaf = true
		node.Value = t.refLeafValue(d, idx)
		return node
	}
	node.Feature = bestFeat
	node.Threshold = bestThr
	node.Left = t.refGrow(d, bestLeft, depth+1)
	node.Right = t.refGrow(d, bestRight, depth+1)
	return node
}

func (t *Tree) candidateFeatures(dim int) []int {
	if t.Config.MaxFeatures <= 0 || t.Config.MaxFeatures >= dim || t.Config.seedFeats == nil {
		all := make([]int, dim)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return t.Config.seedFeats(dim)[:t.Config.MaxFeatures]
}

func (t *Tree) refBestSplitOnFeature(d *dataset.Dataset, idx []int, f int, parentImp float64) (thr, gain float64, left, right []int) {
	type pv struct {
		v float64
		i int
	}
	vals := make([]pv, len(idx))
	for k, i := range idx {
		vals[k] = pv{d.X.At(i, f), i}
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
	n := len(vals)

	bestGain := 0.0
	bestCut := -1
	if t.Config.Regression {
		var lSum, lSq float64
		var rSum, rSq float64
		for _, p := range vals {
			y := d.Y[p.i]
			rSum += y
			rSq += y * y
		}
		for c := 1; c < n; c++ {
			y := d.Y[vals[c-1].i]
			lSum += y
			lSq += y * y
			rSum -= y
			rSq -= y * y
			if c < t.Config.MinLeaf || n-c < t.Config.MinLeaf || vals[c].v == vals[c-1].v {
				continue
			}
			ln, rn := float64(c), float64(n-c)
			lVar := lSq/ln - (lSum/ln)*(lSum/ln)
			rVar := rSq/rn - (rSum/rn)*(rSum/rn)
			g := parentImp - (ln*lVar+rn*rVar)/float64(n)
			if g > bestGain {
				bestGain, bestCut = g, c
			}
		}
	} else {
		classOf := map[int]int{}
		for _, p := range vals {
			c := int(d.Y[p.i])
			if _, ok := classOf[c]; !ok {
				classOf[c] = len(classOf)
			}
		}
		lCnt := make([]float64, len(classOf))
		rCnt := make([]float64, len(classOf))
		var lSq, rSq float64
		for _, p := range vals {
			ci := classOf[int(d.Y[p.i])]
			rSq += 2*rCnt[ci] + 1
			rCnt[ci]++
		}
		for c := 1; c < n; c++ {
			ci := classOf[int(d.Y[vals[c-1].i])]
			lSq += 2*lCnt[ci] + 1
			lCnt[ci]++
			rSq -= 2*rCnt[ci] - 1
			rCnt[ci]--
			if c < t.Config.MinLeaf || n-c < t.Config.MinLeaf || vals[c].v == vals[c-1].v {
				continue
			}
			ln, rn := float64(c), float64(n-c)
			lGini := 1 - lSq/(ln*ln)
			rGini := 1 - rSq/(rn*rn)
			g := parentImp - (ln*lGini+rn*rGini)/float64(n)
			if g > bestGain {
				bestGain, bestCut = g, c
			}
		}
	}
	if bestCut < 0 || bestGain <= 1e-12 {
		return 0, 0, nil, nil
	}
	thr = (vals[bestCut-1].v + vals[bestCut].v) / 2
	left = make([]int, bestCut)
	right = make([]int, n-bestCut)
	for k := 0; k < bestCut; k++ {
		left[k] = vals[k].i
	}
	for k := bestCut; k < n; k++ {
		right[k-bestCut] = vals[k].i
	}
	return thr, bestGain, left, right
}

// conformCase is one generated input for the reference conformer.
type conformCase struct {
	d        *dataset.Dataset
	cfg      Config
	forest   ForestConfig
	tieFree  bool // no two distinct rows share a value on any feature
	describe string
}

// genConformCase draws a dataset mixing continuous, quantized, constant
// and signed-zero columns, with 1-4 classes (or a regression response),
// and a config with MinLeaf 1-3.
func genConformCase(seed int64, regression bool) conformCase {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(500)
	if rng.Intn(4) == 0 {
		n = 1 + rng.Intn(12)
	}
	dim := 1 + rng.Intn(6)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
	}
	tieFree := true
	for j := 0; j < dim; j++ {
		kind := rng.Intn(5)
		if kind > 0 && n > 1 {
			tieFree = false
		}
		for i := range rows {
			var v float64
			switch kind {
			case 0: // continuous
				v = rng.NormFloat64()
			case 1, 2: // quantized to a few levels
				v = float64(rng.Intn(2+rng.Intn(5))) / 2
			case 3: // constant
				v = 1.5
			case 4: // signed zeros among a few values
				v = []float64{math.Copysign(0, -1), 0, 1, -1}[rng.Intn(4)]
			}
			rows[i][j] = v
		}
	}
	y := make([]float64, n)
	classes := []float64{-3, 0, 1, 2, 7}[:1+rng.Intn(4)]
	for i, r := range rows {
		s := 0.0
		for _, v := range r {
			s += v
		}
		if regression {
			y[i] = math.Sin(s) + 0.3*rng.NormFloat64()
			continue
		}
		c := int(math.Abs(s*1.7)) % len(classes)
		if rng.Float64() < 0.15 {
			c = rng.Intn(len(classes))
		}
		y[i] = classes[c]
	}
	minLeaf := 1 + rng.Intn(3)
	maxDepth := 1 + rng.Intn(12)
	return conformCase{
		d:       dataset.FromRows(rows, y),
		cfg:     Config{MaxDepth: maxDepth, MinLeaf: minLeaf, Regression: regression},
		forest:  ForestConfig{NTrees: 1 + rng.Intn(4), MaxDepth: maxDepth, MinLeaf: minLeaf, MaxFeatures: 1 + rng.Intn(dim), Regression: regression},
		tieFree: tieFree,
		describe: fmt.Sprintf("seed=%d n=%d dim=%d classes=%d minLeaf=%d depth=%d regression=%v",
			seed, n, dim, len(classes), minLeaf, maxDepth, regression),
	}
}

// diffNodes returns "" when got and want agree: the same shape, split
// features, threshold bits and sample counts, and leaf values within tol
// (bit-exact when tol is 0). When tie is non-nil and reports that two
// differing splits at path gain the same, the subtrees below are not
// compared.
func diffNodes(got, want *Node, tol float64, path string, tie func(path string, got, want *Node) bool) string {
	if got.Leaf != want.Leaf || got.N != want.N {
		return fmt.Sprintf("%s: leaf=%v n=%d, want leaf=%v n=%d", path, got.Leaf, got.N, want.Leaf, want.N)
	}
	if got.Leaf {
		if tol == 0 && math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
			math.Abs(got.Value-want.Value) > tol {
			return fmt.Sprintf("%s: leaf value %v, want %v", path, got.Value, want.Value)
		}
		return ""
	}
	if got.Feature != want.Feature || math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) {
		if tie != nil && tie(path, got, want) {
			return ""
		}
		return fmt.Sprintf("%s: split f%d<=%v, want f%d<=%v", path, got.Feature, got.Threshold, want.Feature, want.Threshold)
	}
	if s := diffNodes(got.Left, want.Left, tol, path+"L", tie); s != "" {
		return s
	}
	return diffNodes(got.Right, want.Right, tol, path+"R", tie)
}

// gainTie returns a tie check for regression trees fitted on d: two
// differing splits tie when the reference sweep, run on the rows of d
// that reach the node in want's tree, finds the same best threshold as
// each and gains within 1e-12 of each other — equal in exact arithmetic,
// so the order tied rows are summed in decides between them.
func gainTie(d *dataset.Dataset, cfg Config, root *Node, ties *int) func(path string, got, want *Node) bool {
	return func(path string, got, want *Node) bool {
		var idx []int
	rows:
		for i := 0; i < d.Len(); i++ {
			x, n := d.Row(i), root
			for _, side := range path[1:] {
				if (x[n.Feature] <= n.Threshold) != (side == 'L') {
					continue rows
				}
				if side == 'L' {
					n = n.Left
				} else {
					n = n.Right
				}
			}
			idx = append(idx, i)
		}
		t := &Tree{Config: cfg}
		imp := t.refImpurity(d, idx)
		gThr, gGain, _, _ := t.refBestSplitOnFeature(d, idx, got.Feature, imp)
		wThr, wGain, _, _ := t.refBestSplitOnFeature(d, idx, want.Feature, imp)
		if gThr != got.Threshold || wThr != want.Threshold || math.Abs(gGain-wGain) > 1e-12 {
			return false
		}
		*ties++
		return true
	}
}

// TestPresortMatchesReference checks the presorted grower against the
// per-node-sort reference on generated data. Classification trees and
// forests must be node-exact. Regression sums tied rows in (value, row)
// order rather than the reference's arbitrary sort order, so leaf means
// may move by a few ulps, and of two splits with equal gain in exact
// arithmetic either may win. The structure must otherwise match, leaf
// means within 1e-12, and everything must be bit-exact when no two rows
// tie on a feature.
func TestPresortMatchesReference(t *testing.T) {
	cases, ties := 0, 0
	for seed := int64(1); seed <= 240; seed++ {
		cs := genConformCase(seed, seed%3 == 0)
		tol := 0.0
		tieTol := func(*dataset.Dataset, *Node) func(string, *Node, *Node) bool { return nil }
		if cs.cfg.Regression && !cs.tieFree {
			tol = 1e-12
			tieTol = func(d *dataset.Dataset, root *Node) func(string, *Node, *Node) bool {
				return gainTie(d, cs.cfg, root, &ties)
			}
		}
		tr, err := Fit(cs.d, cs.cfg)
		if err != nil {
			t.Fatalf("%s: %v", cs.describe, err)
		}
		want := refFit(cs.d, cs.cfg)
		if s := diffNodes(tr.Root, want, tol, "/", tieTol(cs.d, want)); s != "" {
			t.Fatalf("tree %s: %s", cs.describe, s)
		}
		if err := tr.Validate(cs.d.Dim()); err != nil {
			t.Fatalf("tree %s: %v", cs.describe, err)
		}
		f, err := FitForest(rand.New(rand.NewSource(seed)), cs.d, cs.forest)
		if err != nil {
			t.Fatalf("%s: %v", cs.describe, err)
		}
		roots, boots := refFitForest(rand.New(rand.NewSource(seed)), cs.d, cs.forest)
		for i, want := range roots {
			if s := diffNodes(f.Trees[i].Root, want, tol, "/", tieTol(boots[i], want)); s != "" {
				t.Fatalf("forest tree %d %s: %s", i, cs.describe, s)
			}
		}
		cases += 1 + len(roots)
	}
	t.Logf("%d trees conform; %d regression splits differ at an exact-arithmetic gain tie", cases, ties)
}
