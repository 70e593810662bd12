package main

import (
	"encoding/json"
	"math/rand"
	"time"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/svm"
)

// microBudget is how long each single-layer timing repeats its call.
const microBudget = 200 * time.Millisecond

// sink keeps timed results live.
var sink float64

// fig7Layers times Fig 7's three layers from outside the program, on
// the same candidate stream testsel.Run draws, with testsel's kernel and
// detector settings.
type fig7Layers struct {
	spectrumEval time.Duration // EvalMulti per pair
	simPerProg   time.Duration // SimulateBatch wall time per program
	fitOneClass  time.Duration // FitOneClassGram at the accepted-set size
}

func timeFig7Layers(accepted int) fig7Layers {
	stream := isa.NewGenerator(isa.WideTemplate(), paperSeed).Batch(800)
	spec := kernel.BlendedSpectrum{MaxN: 2, Lambda: 0.25, Normalize: true}
	counts := make([]kernel.MultiCounts, len(stream))
	for i, p := range stream {
		counts[i] = spec.CountsMulti(p.Tokens())
	}
	rng := rand.New(rand.NewSource(paperSeed))
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(len(counts)), rng.Intn(len(counts))}
	}
	var l fig7Layers
	l.spectrumEval = timePer(microBudget, func() {
		for _, p := range pairs {
			sink += spec.EvalMulti(counts[p[0]], counts[p[1]])
		}
	}) / time.Duration(len(pairs))
	l.simPerProg = timePer(microBudget, func() { isa.SimulateBatch(stream) }) / time.Duration(len(stream))

	if accepted < 2 {
		accepted = 2
	}
	if accepted > len(counts) {
		accepted = len(counts)
	}
	gram := make([][]float64, accepted)
	for i := range gram {
		gram[i] = make([]float64, accepted)
		for j := range gram[i] {
			gram[i][j] = spec.EvalMulti(counts[i], counts[j])
		}
	}
	l.fitOneClass = timePer(microBudget, func() {
		if _, err := svm.FitOneClassGram(gram, svm.OneClassConfig{Nu: 0.1, MaxIters: 500}); err != nil {
			panic(err) // the Gram is square and non-empty by construction
		}
	})
	return l
}

// fig7Attribution splits Fig 7's wall time with the program's exact
// counts and the layer timings: kernel rows run striped over the worker
// pool, simulations at the batch rate, one fit per refit.
type fig7Attribution struct {
	kernelS, isaS, svmS, restS float64
}

func attributeFig7(fig7 float64, d obsDelta, l fig7Layers) fig7Attribution {
	a := fig7Attribution{
		kernelS: float64(d["testsel.kernel_row_evals"]) * l.spectrumEval.Seconds() / float64(parallel.Workers()),
		isaS:    float64(d["isa.programs_simulated"]) * l.simPerProg.Seconds(),
		svmS:    float64(d["testsel.refits"]) * l.fitOneClass.Seconds(),
	}
	a.restS = fig7 - a.kernelS - a.isaS - a.svmS
	return a
}

// servingLayers times the model and JSON layers on the served model and
// the workload's own request bodies.
type servingLayers struct {
	scoreBatch time.Duration // Scorer.ScoreBatchInto at the batch size
	kernelRow  time.Duration // KernelExpansion.Eval per row
	decode     time.Duration
	encode     time.Duration
}

func (e *servingEnv) timeLayers(res *phaseResult, batch int) servingLayers {
	if batch < 1 {
		batch = 1
	}
	x := linalg.NewMatrix(batch, e.dim)
	for i := 0; i < batch; i++ {
		r := &res.reqs[i%len(res.reqs)]
		if e.tr.refit {
			copy(x.Row(i), e.hot.Row(r.hot))
		} else {
			copy(x.Row(i), r.row)
		}
	}
	var l servingLayers
	out := make([]float64, batch)
	l.scoreBatch = timePer(microBudget, func() { e.scorers[0].ScoreBatchInto(x, out) })
	row := make([]float64, e.kx.Basis.Rows)
	l.kernelRow = timePer(microBudget, func() { e.kx.Eval(x.Row(0), row) })

	var resp struct {
		Model       string    `json:"model"`
		Kind        string    `json:"kind"`
		Predictions []float64 `json:"predictions"`
	}
	var body []byte
	for i := range res.reqs {
		if json.Unmarshal(res.reqs[i].resp, &resp) == nil && res.reqs[i].status == 200 {
			body = res.reqs[i].body
			break
		}
	}
	l.decode = timePer(microBudget, func() {
		var req struct {
			Instances [][]float64 `json:"instances"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			panic(err)
		}
	})
	l.encode = timePer(microBudget, func() {
		if _, err := json.Marshal(resp); err != nil {
			panic(err)
		}
	})
	return l
}
