package linalg

import "repro/internal/parallel"

// RowPredictor is a fitted model that scores one sample at a time.
type RowPredictor interface {
	Predict(x []float64) float64
}

// PredictRowsCutover keeps small prediction batches serial: scoring a few
// hundred rows of a tree, rule set or linear model is too cheap to
// amortize goroutine startup.
const PredictRowsCutover = 256

// PredictRowsInto writes p.Predict(x.Row(i)) into out[i] for every row
// of x and returns out, which must have length x.Rows. It is the batch
// path of every learner without an amortized batch form of its own.
// Rows are striped across the worker pool at PredictRowsCutover rows and
// above; p must therefore be safe for concurrent calls, and since each
// row is scored by the same Predict call the result is bit-identical at
// any worker count. The serial branch calls the loop directly — no
// closure, no goroutines — so a steady-state batch allocates nothing
// (alloc_test.go pins this at 0 allocs/op).
func PredictRowsInto(x *Matrix, out []float64, p RowPredictor) []float64 {
	if len(out) != x.Rows {
		panic("linalg: PredictRowsInto output length mismatch")
	}
	if parallel.Workers() <= 1 || x.Rows < PredictRowsCutover {
		predictRange(x, out, p, 0, x.Rows)
	} else {
		parallel.ForN(x.Rows, PredictRowsCutover, func(lo, hi int) {
			predictRange(x, out, p, lo, hi)
		})
	}
	return out
}

func predictRange(x *Matrix, out []float64, p RowPredictor, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = p.Predict(x.Row(i))
	}
}
