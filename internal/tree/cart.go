// Package tree implements CART-style decision trees ([7] in the paper) for
// classification and regression, plus bagged random forests ([8]). Trees
// are one of the model-based learners of Section 2.1 whose "model" is a
// tree rather than an equation; forests illustrate ensemble regularization.
package tree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
)

// Node is one node of a fitted tree.
type Node struct {
	// Internal nodes.
	Feature   int
	Threshold float64
	Left      *Node
	Right     *Node
	// Leaves.
	Leaf  bool
	Value float64 // majority class (classification) or mean (regression)
	N     int     // training samples reaching the node
}

// Config controls tree induction.
type Config struct {
	MaxDepth    int  // default 10
	MinLeaf     int  // minimum samples per leaf, default 1
	Regression  bool // variance reduction instead of Gini
	MaxFeatures int  // consider only this many random features per split (0 = all); used by forests
	seedFeats   func(n int) []int
}

// Tree is a fitted decision tree.
type Tree struct {
	Root   *Node
	Config Config
}

// Fit grows a tree on d. Every feature value, and every label of a
// regression tree, must be finite.
func Fit(d *dataset.Dataset, cfg Config) (*Tree, error) {
	if d.Len() == 0 {
		return nil, errors.New("tree: empty dataset")
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 10
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	g, err := newGrower(d, cfg.Regression)
	if err != nil {
		return nil, err
	}
	rows := make([]int32, d.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	return g.fit(cfg, rows), nil
}

// grower induces trees over presorted columns. Each feature is sorted
// once; a node owns the same segment [lo,hi) of every feature's order
// array, and a split stable-partitions those segments so both children
// stay sorted without another sort.
type grower struct {
	cfg    Config
	vals   [][]float64 // vals[f][row]
	y      []float64   // regression labels by row
	cls    []int32     // class index by row; indexes labels
	labels []float64   // distinct class labels, ascending
	order  [][]int32   // order[f]: rows sorted by (vals[f][row], row)
	all    []int       // every feature index, the candidates when not sampling
	goLeft []bool      // split side by row, set while partitioning
	buf    []int32     // partition scratch
	cnt    []float64   // class counts of the current node
	lCnt   []float64   // class counts left of the sweep cut
	rCnt   []float64   // class counts right of the sweep cut
}

// newGrower copies d into columns, presorts every column and compacts
// class labels. It rejects non-finite features (and regression labels),
// which would split on NaN thresholds and leave the sort without a strict
// order.
func newGrower(d *dataset.Dataset, regression bool) (*grower, error) {
	n, dim := d.Len(), d.Dim()
	if len(d.Y) != n {
		return nil, fmt.Errorf("tree: %d rows but %d labels", n, len(d.Y))
	}
	g := &grower{
		vals:   make([][]float64, dim),
		order:  make([][]int32, dim),
		all:    make([]int, dim),
		goLeft: make([]bool, n),
		buf:    make([]int32, n),
	}
	type pair struct {
		v float64
		r int32
	}
	pairs := make([]pair, n)
	for f := range dim {
		g.all[f] = f
		col := d.Col(f)
		for r, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("tree: non-finite feature %d value %v in row %d", f, v, r)
			}
			pairs[r] = pair{v, int32(r)}
		}
		slices.SortFunc(pairs, func(a, b pair) int {
			if a.v != b.v {
				return cmp.Compare(a.v, b.v)
			}
			return cmp.Compare(a.r, b.r)
		})
		ord := make([]int32, n)
		for k, p := range pairs {
			ord[k] = p.r
		}
		g.vals[f], g.order[f] = col, ord
	}
	if regression {
		for r, v := range d.Y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("tree: non-finite label %v in row %d", v, r)
			}
		}
		g.y = d.Y
		return g, nil
	}
	keys := make([]int, n)
	for r, v := range d.Y {
		keys[r] = int(v)
	}
	distinct := slices.Clone(keys)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	g.cls = make([]int32, n)
	for r, k := range keys {
		ci, _ := slices.BinarySearch(distinct, k)
		g.cls[r] = int32(ci)
	}
	g.labels = make([]float64, len(distinct))
	for ci, k := range distinct {
		g.labels[ci] = float64(k)
	}
	g.cnt = make([]float64, len(distinct))
	g.lCnt = make([]float64, len(distinct))
	g.rCnt = make([]float64, len(distinct))
	return g, nil
}

// fit grows one tree over the rows g.order currently holds. rows lists
// the same rows in training-set order; the root's regression sums run in
// that order, as each child's run in its parent's split-feature order.
func (g *grower) fit(cfg Config, rows []int32) *Tree {
	g.cfg = cfg
	return &Tree{Root: g.grow(0, len(rows), rows, 0), Config: cfg}
}

func (g *grower) grow(lo, hi int, rows []int32, depth int) *Node {
	node := &Node{N: hi - lo}
	imp, value := g.stats(rows)
	if depth >= g.cfg.MaxDepth || hi-lo < 2*g.cfg.MinLeaf || imp < 1e-12 {
		node.Leaf, node.Value = true, value
		return node
	}
	feat, cut := g.bestSplit(lo, hi, imp)
	if feat < 0 {
		node.Leaf, node.Value = true, value
		return node
	}
	seg, col := g.order[feat][lo:hi], g.vals[feat]
	node.Feature = feat
	node.Threshold = (col[seg[cut-1]] + col[seg[cut]]) / 2
	if depth+1 < g.cfg.MaxDepth { // children at MaxDepth are leaves and never read order
		g.partition(feat, lo, lo+cut, hi)
	}
	node.Left = g.grow(lo, lo+cut, seg[:cut], depth+1)
	node.Right = g.grow(lo+cut, hi, seg[cut:], depth+1)
	return node
}

// stats returns a node's impurity and leaf value: Gini and the majority
// class (ties to the smallest label), or variance and mean.
func (g *grower) stats(rows []int32) (imp, value float64) {
	n := float64(len(rows))
	if g.cfg.Regression {
		mean := 0.0
		for _, r := range rows {
			mean += g.y[r]
		}
		mean /= n
		s := 0.0
		for _, r := range rows {
			dd := g.y[r] - mean
			s += dd * dd
		}
		return s / n, mean
	}
	clear(g.cnt)
	for _, r := range rows {
		g.cnt[g.cls[r]]++
	}
	imp, best := 1.0, 0
	for ci, c := range g.cnt {
		p := c / n
		imp -= p * p
		if c > g.cnt[best] {
			best = ci
		}
	}
	return imp, g.labels[best]
}

// bestSplit sweeps every candidate feature's sorted segment and returns
// the feature and cut position (rows left of the cut go left) of the
// largest gain, or feat -1 when no split gains more than 1e-12. stats
// must have filled g.cnt for this node.
func (g *grower) bestSplit(lo, hi int, parentImp float64) (feat, cut int) {
	feats := g.all
	if k := g.cfg.MaxFeatures; k > 0 && k < len(g.all) && g.cfg.seedFeats != nil {
		feats = g.cfg.seedFeats(len(g.all))[:k]
	}
	feat, bestGain := -1, 0.0
	for _, f := range feats {
		var c int
		var gain float64
		if g.cfg.Regression {
			c, gain = g.sweepVariance(f, lo, hi, parentImp)
		} else {
			c, gain = g.sweepGini(f, lo, hi, parentImp)
		}
		if c >= 0 && gain > 1e-12 && gain > bestGain {
			feat, cut, bestGain = f, c, gain
		}
	}
	return feat, cut
}

// sweepGini scans the cuts between distinct values of feature f,
// updating Σcount² incrementally; counts are integers, so every sum is
// exact and the result does not depend on the order of tied rows.
func (g *grower) sweepGini(f, lo, hi int, parentImp float64) (bestCut int, bestGain float64) {
	seg, col := g.order[f][lo:hi], g.vals[f]
	n, minLeaf := len(seg), g.cfg.MinLeaf
	clear(g.lCnt)
	copy(g.rCnt, g.cnt)
	var lSq, rSq float64 // Σ count²
	for _, c := range g.rCnt {
		rSq += c * c
	}
	bestCut = -1
	prev := col[seg[0]]
	for c := 1; c < n; c++ {
		ci := g.cls[seg[c-1]]
		lSq += 2*g.lCnt[ci] + 1
		g.lCnt[ci]++
		rSq -= 2*g.rCnt[ci] - 1
		g.rCnt[ci]--
		v := col[seg[c]]
		tie := v == prev
		prev = v
		if c < minLeaf || n-c < minLeaf || tie {
			continue
		}
		ln, rn := float64(c), float64(n-c)
		lGini := 1 - lSq/(ln*ln)
		rGini := 1 - rSq/(rn*rn)
		if gain := parentImp - (ln*lGini+rn*rGini)/float64(n); gain > bestGain {
			bestGain, bestCut = gain, c
		}
	}
	return bestCut, bestGain
}

// sweepVariance scans the cuts between distinct values of feature f with
// prefix sums, so each side's variance is O(1).
func (g *grower) sweepVariance(f, lo, hi int, parentImp float64) (bestCut int, bestGain float64) {
	seg, col := g.order[f][lo:hi], g.vals[f]
	n, minLeaf := len(seg), g.cfg.MinLeaf
	var lSum, lSq, rSum, rSq float64
	for _, r := range seg {
		y := g.y[r]
		rSum += y
		rSq += y * y
	}
	bestCut = -1
	prev := col[seg[0]]
	for c := 1; c < n; c++ {
		y := g.y[seg[c-1]]
		lSum += y
		lSq += y * y
		rSum -= y
		rSq -= y * y
		v := col[seg[c]]
		tie := v == prev
		prev = v
		if c < minLeaf || n-c < minLeaf || tie {
			continue
		}
		ln, rn := float64(c), float64(n-c)
		lVar := lSq/ln - (lSum/ln)*(lSum/ln)
		rVar := rSq/rn - (rSum/rn)*(rSum/rn)
		if gain := parentImp - (ln*lVar+rn*rVar)/float64(n); gain > bestGain {
			bestGain, bestCut = gain, c
		}
	}
	return bestCut, bestGain
}

// partition splits segment [lo,hi) of every order array at mid: the rows
// of order[feat][lo:mid] go left. order[feat] is already split; every
// other segment is stable-partitioned through g.buf, so it stays sorted.
func (g *grower) partition(feat, lo, mid, hi int) {
	split := g.order[feat]
	for _, r := range split[lo:mid] {
		g.goLeft[r] = true
	}
	for _, r := range split[mid:hi] {
		g.goLeft[r] = false
	}
	for f, ord := range g.order {
		if f == feat {
			continue
		}
		seg, w, nb := ord[lo:hi], 0, 0
		for _, r := range seg {
			if g.goLeft[r] {
				seg[w] = r
				w++
			} else {
				g.buf[nb] = r
				nb++
			}
		}
		copy(seg[w:], g.buf[:nb])
	}
}

// Predict routes x to a leaf and returns its value.
func (t *Tree) Predict(x []float64) float64 {
	n := t.Root
	for !n.Leaf {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// Validate checks the structural partition invariant of a fitted (or
// decoded) tree for inputs of the given width: every internal node has
// both children, a finite threshold, and a feature index inside [0, dim);
// every leaf carries at least one training sample; and each internal
// node's sample count equals the sum of its children's. Together these
// guarantee that any dim-wide input is routed to exactly one leaf — the
// partition-coverage invariant the conformance suite asserts on every
// generated fit and every decoded artifact.
func (t *Tree) Validate(dim int) error {
	if t.Root == nil {
		return errors.New("tree: nil root")
	}
	var rec func(n *Node, path string) error
	rec = func(n *Node, path string) error {
		if n.Leaf {
			if n.N < 1 {
				return fmt.Errorf("tree: leaf at %q has n=%d < 1", path, n.N)
			}
			if math.IsNaN(n.Value) || math.IsInf(n.Value, 0) {
				return fmt.Errorf("tree: leaf at %q has non-finite value %v", path, n.Value)
			}
			return nil
		}
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("tree: internal node at %q is missing a child", path)
		}
		if n.Feature < 0 || n.Feature >= dim {
			return fmt.Errorf("tree: internal node at %q splits on feature %d outside [0,%d)", path, n.Feature, dim)
		}
		if math.IsNaN(n.Threshold) || math.IsInf(n.Threshold, 0) {
			return fmt.Errorf("tree: internal node at %q has non-finite threshold %v", path, n.Threshold)
		}
		if n.N != 0 && n.Left.N+n.Right.N != n.N {
			return fmt.Errorf("tree: node at %q has n=%d but children sum to %d",
				path, n.N, n.Left.N+n.Right.N)
		}
		if err := rec(n.Left, path+"L"); err != nil {
			return err
		}
		return rec(n.Right, path+"R")
	}
	return rec(t.Root, "/")
}

// Depth returns the depth of the fitted tree (leaf-only tree has depth 0).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil || n.Leaf {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return leaves(t.Root) }

func leaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	return leaves(n.Left) + leaves(n.Right)
}

// Dump renders the tree as indented text with feature names from d.
func (t *Tree) Dump(names func(int) string) string {
	var b []byte
	var rec func(n *Node, indent string)
	rec = func(n *Node, indent string) {
		if n.Leaf {
			b = append(b, fmt.Sprintf("%sleaf value=%.4g n=%d\n", indent, n.Value, n.N)...)
			return
		}
		name := fmt.Sprintf("f%d", n.Feature)
		if names != nil {
			name = names(n.Feature)
		}
		b = append(b, fmt.Sprintf("%sif %s <= %.4g (n=%d)\n", indent, name, n.Threshold, n.N)...)
		rec(n.Left, indent+"  ")
		rec(n.Right, indent+"  ")
	}
	rec(t.Root, "")
	return string(b)
}

// FeatureImportance accumulates, per feature, the number of training
// samples split on it — a cheap importance proxy.
func (t *Tree) FeatureImportance(dim int) []float64 {
	imp := make([]float64, dim)
	var rec func(n *Node)
	rec = func(n *Node) {
		if n == nil || n.Leaf {
			return
		}
		imp[n.Feature] += float64(n.N)
		rec(n.Left)
		rec(n.Right)
	}
	rec(t.Root)
	total := 0.0
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}
