// Package dataset defines the tabular dataset abstraction from Figure 1 of
// the paper: a sample matrix X whose columns are features f1..fn, plus an
// optional label vector y (supervised), label matrix Y (multivariate), or
// nothing (unsupervised). It also provides splitting, sampling, and
// standardization utilities shared by every learner.
package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// Dataset is a supervised or unsupervised learning dataset.
//
// X holds one sample per row. Y, when non-nil, holds one label per sample:
// for classification the labels are small integers stored as float64; for
// regression they are continuous responses.
type Dataset struct {
	X     *linalg.Matrix
	Y     []float64
	Names []string // feature names; len == X.Cols when set
}

// New builds a dataset, validating shapes.
func New(x *linalg.Matrix, y []float64, names []string) (*Dataset, error) {
	if y != nil && len(y) != x.Rows {
		return nil, fmt.Errorf("dataset: %d rows but %d labels", x.Rows, len(y))
	}
	if names != nil && len(names) != x.Cols {
		return nil, fmt.Errorf("dataset: %d cols but %d names", x.Cols, len(names))
	}
	return &Dataset{X: x, Y: y, Names: names}, nil
}

// MustNew is New but panics on shape errors; for literals in tests/examples.
func MustNew(x *linalg.Matrix, y []float64, names []string) *Dataset {
	d, err := New(x, y, names)
	if err != nil {
		panic(err)
	}
	return d
}

// FromRows builds a dataset from row slices and labels.
func FromRows(rows [][]float64, y []float64) *Dataset {
	return MustNew(linalg.FromRows(rows), y, nil)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows }

// Dim returns the number of features.
func (d *Dataset) Dim() int { return d.X.Cols }

// Row returns sample i (a view into X).
func (d *Dataset) Row(i int) []float64 { return d.X.Row(i) }

// Col returns a copy of feature column j.
func (d *Dataset) Col(j int) []float64 { return d.X.Col(j) }

// ColInto copies feature column j into dst (length Len()) — the
// allocation-free form of Col for per-feature sweeps that reuse one
// scratch buffer across columns.
func (d *Dataset) ColInto(j int, dst []float64) { d.X.ColInto(j, dst) }

// PredictAll returns predict(d.Row(i)) for every sample, in row order.
// Any learner's one-row method fits: m.Predict, m.Decision, or kNN's
// m.Classify/m.Regress. The loop is serial because not every learner's
// Predict is safe for concurrent calls.
func PredictAll(d *Dataset, predict func(x []float64) float64) []float64 {
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = predict(d.Row(i))
	}
	return out
}

// FeatureName returns the name of feature j, or "f<j>" when unnamed.
func (d *Dataset) FeatureName(j int) string {
	if d.Names != nil && j < len(d.Names) {
		return d.Names[j]
	}
	return fmt.Sprintf("f%d", j)
}

// Subset returns a new dataset containing the given sample indices (copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	x := linalg.NewMatrix(len(idx), d.Dim())
	var y []float64
	if d.Y != nil {
		y = make([]float64, len(idx))
	}
	for r, i := range idx {
		copy(x.Row(r), d.Row(i))
		if y != nil {
			y[r] = d.Y[i]
		}
	}
	return &Dataset{X: x, Y: y, Names: d.Names}
}

// SelectFeatures returns a new dataset keeping only the given columns.
func (d *Dataset) SelectFeatures(cols []int) *Dataset {
	x := linalg.NewMatrix(d.Len(), len(cols))
	for i := 0; i < d.Len(); i++ {
		row := d.Row(i)
		out := x.Row(i)
		for c, j := range cols {
			out[c] = row[j]
		}
	}
	var names []string
	if d.Names != nil {
		names = make([]string, len(cols))
		for c, j := range cols {
			names[c] = d.Names[j]
		}
	}
	return &Dataset{X: x, Y: d.Y, Names: names}
}

// Classes returns the sorted distinct labels of a classification dataset.
func (d *Dataset) Classes() []int {
	seen := map[int]bool{}
	for _, v := range d.Y {
		seen[int(v)] = true
	}
	out := make([]int, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort; class counts are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ClassCounts returns a map from class label to frequency.
func (d *Dataset) ClassCounts() map[int]int {
	c := map[int]int{}
	for _, v := range d.Y {
		c[int(v)]++
	}
	return c
}

// Split partitions the dataset into a training and test set with the given
// training fraction, after a random shuffle.
func (d *Dataset) Split(rng *rand.Rand, trainFrac float64) (train, test *Dataset) {
	idx := rng.Perm(d.Len())
	cut := int(trainFrac * float64(d.Len()))
	if cut < 0 {
		cut = 0
	}
	if cut > d.Len() {
		cut = d.Len()
	}
	return d.Subset(idx[:cut]), d.Subset(idx[cut:])
}

// StratifiedSplit splits preserving per-class proportions.
func (d *Dataset) StratifiedSplit(rng *rand.Rand, trainFrac float64) (train, test *Dataset) {
	byClass := map[int][]int{}
	for i, v := range d.Y {
		c := int(v)
		byClass[c] = append(byClass[c], i)
	}
	var trainIdx, testIdx []int
	for _, c := range d.Classes() {
		idx := byClass[c]
		stats.Shuffle(rng, idx)
		cut := int(trainFrac * float64(len(idx)))
		trainIdx = append(trainIdx, idx[:cut]...)
		testIdx = append(testIdx, idx[cut:]...)
	}
	stats.Shuffle(rng, trainIdx)
	stats.Shuffle(rng, testIdx)
	return d.Subset(trainIdx), d.Subset(testIdx)
}

// KFold returns k (train, test) index partitions after a shuffle.
func KFold(rng *rand.Rand, n, k int) (trainIdx, testIdx [][]int) {
	perm := rng.Perm(n)
	trainIdx = make([][]int, k)
	testIdx = make([][]int, k)
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		testIdx[f] = append([]int(nil), perm[lo:hi]...)
		trainIdx[f] = append(append([]int(nil), perm[:lo]...), perm[hi:]...)
	}
	return trainIdx, testIdx
}

// Scaler standardizes features to zero mean and unit variance, remembering
// the fit so the identical transform applies to future data (the paper's
// training vs validation distinction).
type Scaler struct {
	Mean, Std []float64
}

// FitScaler learns per-column means and standard deviations.
func FitScaler(x *linalg.Matrix) *Scaler {
	s := &Scaler{Mean: make([]float64, x.Cols), Std: make([]float64, x.Cols)}
	col := make([]float64, x.Rows)
	for j := 0; j < x.Cols; j++ {
		x.ColInto(j, col)
		s.Mean[j] = stats.Mean(col)
		s.Std[j] = stats.StdDev(col)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform returns a standardized copy of x.
func (s *Scaler) Transform(x *linalg.Matrix) *linalg.Matrix {
	out := x.Clone()
	for i := 0; i < x.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = (row[j] - s.Mean[j]) / s.Std[j]
		}
	}
	return out
}

// TransformVec standardizes a single sample.
func (s *Scaler) TransformVec(v []float64) []float64 {
	out := make([]float64, len(v))
	for j := range v {
		out[j] = (v[j] - s.Mean[j]) / s.Std[j]
	}
	return out
}

// Inverse undoes the transform for a single sample.
func (s *Scaler) Inverse(v []float64) []float64 {
	out := make([]float64, len(v))
	for j := range v {
		out[j] = v[j]*s.Std[j] + s.Mean[j]
	}
	return out
}

// WriteCSV writes the dataset with a header row (feature names then "y"
// when labels are present).
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, d.Dim()+1)
	for j := 0; j < d.Dim(); j++ {
		header = append(header, d.FeatureName(j))
	}
	if d.Y != nil {
		header = append(header, "y")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for i := 0; i < d.Len(); i++ {
		row := d.Row(i)
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if d.Y != nil {
			rec[len(rec)-1] = strconv.FormatFloat(d.Y[i], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a dataset written by WriteCSV. If the last column is named
// "y" it becomes the label vector.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) < 1 {
		return nil, fmt.Errorf("dataset: empty CSV")
	}
	header := recs[0]
	hasY := len(header) > 0 && header[len(header)-1] == "y"
	nf := len(header)
	if hasY {
		nf--
	}
	n := len(recs) - 1
	x := linalg.NewMatrix(n, nf)
	var y []float64
	if hasY {
		y = make([]float64, n)
	}
	for i, rec := range recs[1:] {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: row %d has %d fields, want %d", i, len(rec), len(header))
		}
		for j := 0; j < nf; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d col %d: %w", i, j, err)
			}
			x.Set(i, j, v)
		}
		if hasY {
			v, err := strconv.ParseFloat(rec[nf], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d label: %w", i, err)
			}
			y[i] = v
		}
	}
	names := append([]string(nil), header[:nf]...)
	return New(x, y, names)
}
