package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/svm"
)

const (
	features  = 16
	trainRows = 600

	// latencyLimit is the p99 bound of the max_rps ladder: five times
	// the shipped MaxWait. A rung whose generator ran as late as the
	// limit at p99 does not meet it.
	latencyLimit = 10 * time.Millisecond
	// maxMedianLateness makes a fixed-rate phase unmeasurable: a
	// generator late by half the shipped MaxWait on the median request
	// is the bottleneck, not the server. The p99 lateness is no test of
	// the generator here: on a shared 2-vCPU VM it follows stalls of the
	// host, which reach 10-30 ms and hold up the server just the same.
	maxMedianLateness = time.Millisecond

	// The refit traffic follows cmd/edaloop as scripts/stream_smoke.sh
	// runs it: -source isa -window 256 -warmup 32 -shift-at 600
	// -min-refit 8 -refresh-max 64. The served versions are the last
	// refreshes of such a run over loopCandidates candidates (at least
	// ten refreshes for every seed tried). Each request scores one row,
	// as stream_smoke sends, drawn from a hot set of hotRows candidates:
	// the next window's worth of the same stream. swapEvery is the swap
	// interval measured when edaloop -seed 42 with those flags pushes
	// every refresh to a local edaserved: 72 swaps over 5000 candidates,
	// 12.25 ms apart (median of five runs on a 2-vCPU Intel Xeon).
	loopCandidates = 1000
	loopShiftAt    = 600
	refitVersions  = 6
	hotRows        = 256
	swapEvery      = 12 * time.Millisecond

	// The generator retries as internal/serve/client does with its
	// defaults: 429 and 5xx are retried, up to clientAttempts tries in
	// all, after a backoff of 10 ms doubling per retry (here the middle
	// of the client's jitter range, three quarters of it), while a retry
	// budget of clientBudget tokens, spent per retry and refunded per
	// success, lasts. The circuit breaker is not modelled.
	clientAttempts = 4
	clientBackoff  = 7500 * time.Microsecond
	clientBudget   = 32

	modelName = "served"
)

func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// shippedConfig is cmd/edaserved's flag defaults. serve.Config{} would
// leave the kernel-row cache off, although its comment says "Default
// 1024", so every field is spelled out.
func shippedConfig() serve.Config {
	return serve.Config{
		MaxBatch:       16,
		MaxWait:        2 * time.Millisecond,
		MaxInFlight:    256,
		CacheRows:      1024,
		RequestTimeout: 10 * time.Second,
		DrainTimeout:   10 * time.Second,
	}
}

// traffic is what distinguishes the two serving workloads.
type traffic struct {
	refit bool // edaloop's model versions and hot set, with hot swaps
	// Rates in requests per second: low keeps batches near one request,
	// high lets them fill.
	low, high float64
	ladder    bool // climb the max_rps ladder after the fixed rates
}

// servingEnv is one set-up: the model versions, their in-process scorers
// (the reference every response is checked against) and a server running
// the first version.
type servingEnv struct {
	tr       traffic
	dim      int
	versions []*model.Artifact
	scorers  []model.Scorer
	kx       *model.KernelExpansion
	hot      *linalg.Matrix // refit hot set
	srv      *serve.Server
	h        http.Handler
	swapper  int32        // versions loaded so far, minus one
	live     atomic.Int32 // swap count at the latest completed Load
}

// labelledRows draws n rows of two overlapping Gaussian classes. The
// overlap keeps a few hundred support vectors in a 600-row fit.
func labelledRows(rng *rand.Rand, n int) (*linalg.Matrix, []float64) {
	x := linalg.NewMatrix(n, features)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		c := float64(2*rng.Intn(2) - 1)
		y[i] = c
		for j := 0; j < features; j++ {
			v := rng.NormFloat64()
			if j < 4 {
				v += 0.5 * c
			}
			x.Row(i)[j] = v
		}
	}
	return x, y
}

// roundTrip serves an artifact as edaserved does: decoded from its bytes.
func roundTrip(a *model.Artifact) (*model.Artifact, error) {
	data, err := a.Marshal()
	if err != nil {
		return nil, err
	}
	return model.Decode(data)
}

// freshVersion trains the served RBF SVC on trainRows seeded rows.
func freshVersion(seed int64) (*model.Artifact, error) {
	x, y := labelledRows(rand.New(rand.NewSource(seed)), trainRows)
	d, err := dataset.New(x, y, nil)
	if err != nil {
		return nil, err
	}
	m, err := svm.FitSVC(d, kernel.RBF{Gamma: 1.0 / features}, svm.SVCConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	a, err := model.Encode(m, model.Meta{Name: modelName, Seed: seed})
	if err != nil {
		return nil, err
	}
	return roundTrip(a)
}

// loopVersions runs the streaming loop as stream_smoke runs edaloop and
// returns the last refitVersions models it published, then the next
// hotRows candidates of the same stream.
func loopVersions(seed int64) ([]*model.Artifact, *linalg.Matrix, error) {
	src := stream.NewISASource(seed, loopShiftAt)
	var published []*model.Artifact
	_, err := stream.Run(context.Background(), stream.Config{
		Seed: seed, Source: src, Candidates: loopCandidates,
		Window: 256, Warmup: 32, MinRefit: 8, RefreshMax: 64,
		ModelName: modelName,
		Publish: func(a *model.Artifact) error {
			published = append(published, a)
			return nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if len(published) < refitVersions {
		return nil, nil, fmt.Errorf("the loop published %d versions, want %d", len(published), refitVersions)
	}
	var versions []*model.Artifact
	for _, a := range published[len(published)-refitVersions:] {
		rt, err := roundTrip(a)
		if err != nil {
			return nil, nil, err
		}
		versions = append(versions, rt)
	}
	hot := linalg.NewMatrix(hotRows, src.Dim())
	for i := 0; i < hotRows; i++ {
		copy(hot.Row(i), src.Next().Features)
	}
	return versions, hot, nil
}

// setupServing trains the model versions, starts a server with the
// shipped configuration and loads the first version.
func setupServing(tr traffic, seed int64) (*servingEnv, error) {
	env := &servingEnv{tr: tr}
	if tr.refit {
		var err error
		if env.versions, env.hot, err = loopVersions(seed); err != nil {
			return nil, fmt.Errorf("run the streaming loop: %w", err)
		}
	} else {
		a, err := freshVersion(seed)
		if err != nil {
			return nil, fmt.Errorf("train the served model: %w", err)
		}
		env.versions = []*model.Artifact{a}
	}
	for _, a := range env.versions {
		sc, err := a.Scorer()
		if err != nil {
			return nil, err
		}
		env.scorers = append(env.scorers, sc)
	}
	env.dim = env.scorers[0].Dim()
	kx, ok := env.versions[0].KernelExpansion()
	if !ok {
		return nil, errors.New("serving model has no kernel expansion")
	}
	env.kx = kx
	env.srv = serve.New(shippedConfig())
	if err := env.srv.Load(modelName, env.versions[0]); err != nil {
		env.srv.Close()
		return nil, err
	}
	env.h = env.srv.Handler()
	return env, nil
}

// schedule draws n Poisson arrival offsets at rate per second.
func schedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * 1e9)
	}
	return due
}

// phase is one fixed-rate stretch of open-loop traffic, drawn in full
// before it starts.
type phase struct {
	name string
	rate float64
	due  []time.Duration
	rng  *rand.Rand // draws the request rows when the bodies are built
}

// request is one generated request and what became of it. Offsets are
// from the phase start.
type request struct {
	body []byte
	row  []float64 // fresh traffic: the row itself
	hot  int       // refit traffic: its index into the hot set
	// The swap counts read just before and just after ServeHTTP. The
	// handler looked the model up in between, so it served one of the
	// versions from vFrom to vTo+1: a swap updates the server first and
	// the count after.
	vFrom, vTo int32

	// first is the first attempt's start and start the last attempt's;
	// they differ when the request was retried.
	dispatch, first, start, end time.Duration
	retries                     int
	status                      int
	resp                        []byte
}

// phaseResult summarises one phase.
type phaseResult struct {
	name      string
	rate      float64
	reqs      []request
	t0        time.Time // phase start; request offsets are from here
	due       []time.Duration
	sent, ok  int
	retries   int         // retries sent, on top of sent
	status    map[int]int // of each request's last attempt
	lat       []float64   // ms from due time, 200s only
	late      []float64   // ms the generator dispatched after the due time
	handler   []float64   // µs inside the last attempt's ServeHTTP
	backlog   int         // requests outstanding at the last due time
	obs       obsDelta
	allocs    runtime.MemStats // delta over the phase
	loadTimes []time.Duration  // Server.Load of each hot swap
}

func (r *phaseResult) latQ(q float64) float64 {
	return quantile(append([]float64(nil), r.lat...), q)
}

func (r *phaseResult) lateQ(q float64) float64 {
	return quantile(append([]float64(nil), r.late...), q)
}

// meets reports whether the phase met the ladder's criteria: p99 within
// the limit, at most 0.1% failures, and a backlog no larger than the
// limit allows at this rate, plus one batch.
func (r *phaseResult) meets() bool {
	failed := r.sent - r.ok
	if float64(failed) > 0.001*float64(r.sent) {
		return false
	}
	if r.latQ(0.99) > ms(latencyLimit) {
		return false
	}
	return float64(r.backlog) <= math.Ceil(r.rate*latencyLimit.Seconds())+16
}

// build fills in the request bodies of a phase.
func (e *servingEnv) build(p *phase) ([]request, error) {
	reqs := make([]request, len(p.due))
	type body struct {
		Instances [][]float64 `json:"instances"`
	}
	for i := range reqs {
		var row []float64
		if e.tr.refit {
			reqs[i].hot = p.rng.Intn(hotRows)
			row = e.hot.Row(reqs[i].hot)
		} else {
			row = make([]float64, e.dim)
			for j := range row {
				row[j] = p.rng.NormFloat64() * 1.2
			}
			reqs[i].row = row
		}
		b, err := json.Marshal(body{Instances: [][]float64{row}})
		if err != nil {
			return nil, err
		}
		reqs[i].body = b
	}
	return reqs, nil
}

// run drives one phase open-loop: every request is dispatched at its due
// time whatever the state of earlier ones, and timed from that due time.
func (e *servingEnv) run(p *phase) (*phaseResult, error) {
	reqs, err := e.build(p)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	res := &phaseResult{name: p.name, rate: p.rate, reqs: reqs, due: p.due, status: map[int]int{}}
	before := snapObs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var outstanding atomic.Int64
	var budget sync.Mutex // the client's retry budget
	tokens := clientBudget
	refund := func() {
		budget.Lock()
		tokens = min(tokens+1, clientBudget)
		budget.Unlock()
	}
	spend := func() bool {
		budget.Lock()
		defer budget.Unlock()
		if tokens == 0 {
			return false
		}
		tokens--
		return true
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var swapWG sync.WaitGroup
	t0 := time.Now()
	res.t0 = t0
	if e.tr.refit {
		swapWG.Add(1)
		go func() {
			defer swapWG.Done()
			res.loadTimes = e.swapLoop(t0, stop)
		}()
	}
	for i := range reqs {
		waitUntil(t0.Add(p.due[i]))
		r := &reqs[i]
		r.dispatch = time.Since(t0)
		outstanding.Add(1)
		wg.Add(1)
		go func(r *request) {
			defer wg.Done()
			r.vFrom = e.live.Load()
			r.first = time.Since(t0)
			for {
				hr := httptest.NewRequest(http.MethodPost, "/predict/"+modelName, bytes.NewReader(r.body))
				rec := httptest.NewRecorder()
				r.start = time.Since(t0)
				e.h.ServeHTTP(rec, hr)
				r.end = time.Since(t0)
				r.status = rec.Code
				r.resp = rec.Body.Bytes()
				if r.status == http.StatusOK {
					refund()
				}
				if !retryable(r.status) || r.retries+1 == clientAttempts || !spend() {
					break
				}
				time.Sleep(clientBackoff << r.retries)
				r.retries++
			}
			r.vTo = e.live.Load()
			outstanding.Add(-1)
		}(r)
	}
	res.backlog = int(outstanding.Load())
	wg.Wait()
	close(stop)
	swapWG.Wait()
	runtime.ReadMemStats(&m1)
	res.obs = snapObs().sub(before)
	res.allocs = memDelta(m0, m1)

	for i := range reqs {
		r := &reqs[i]
		res.sent++
		res.retries += r.retries
		res.status[r.status]++
		res.late = append(res.late, ms(r.dispatch-p.due[i]))
		res.handler = append(res.handler, us(r.end-r.start))
		if r.status == http.StatusOK {
			res.ok++
			res.lat = append(res.lat, ms(r.end-p.due[i]))
		}
	}
	return res, nil
}

// merge pools the segments of one fixed-rate phase.
func merge(parts []*phaseResult) *phaseResult {
	m := &phaseResult{name: parts[0].name, rate: parts[0].rate, status: map[int]int{}, obs: obsDelta{}}
	for _, p := range parts {
		m.reqs = append(m.reqs, p.reqs...)
		m.due = append(m.due, p.due...)
		m.sent += p.sent
		m.ok += p.ok
		m.retries += p.retries
		for code, n := range p.status {
			m.status[code] += n
		}
		m.lat = append(m.lat, p.lat...)
		m.late = append(m.late, p.late...)
		m.handler = append(m.handler, p.handler...)
		for k, v := range p.obs {
			m.obs[k] += v
		}
		m.allocs.TotalAlloc += p.allocs.TotalAlloc
		m.allocs.Mallocs += p.allocs.Mallocs
		m.allocs.NumGC += p.allocs.NumGC
		m.loadTimes = append(m.loadTimes, p.loadTimes...)
	}
	return m
}

// addSpans records each request's spans: the request from its due time
// to its reply, the generator's lateness, the dispatch to a goroutine,
// the attempts before the last with their backoff, and the last
// ServeHTTP call.
func (r *phaseResult) addSpans(tc *tracer) {
	if tc == nil {
		return
	}
	for i := range r.reqs {
		q := &r.reqs[i]
		at := func(d time.Duration) time.Time { return r.t0.Add(d) }
		id := tc.newID()
		tc.add(span{ID: id, Req: id, Name: "request", Start: at(r.due[i]), End: at(q.end)})
		tc.add(span{ID: tc.newID(), Parent: id, Req: id, Name: "gen.late", Start: at(r.due[i]), End: at(q.dispatch)})
		tc.add(span{ID: tc.newID(), Parent: id, Req: id, Name: "dispatch", Start: at(q.dispatch), End: at(q.first)})
		if q.retries > 0 {
			tc.add(span{ID: tc.newID(), Parent: id, Req: id, Name: "client.retry", Start: at(q.first), End: at(q.start)})
		}
		tc.add(span{ID: tc.newID(), Parent: id, Req: id, Name: "serve.handler", Start: at(q.start), End: at(q.end)})
	}
}

// spinWindow is how long before a due time the generator stops sleeping
// and yields in a loop instead: a sleep here overshoots by up to a
// millisecond or two, which would be charged to every request.
const spinWindow = 2 * time.Millisecond

func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > spinWindow:
			time.Sleep(d - spinWindow)
		default:
			runtime.Gosched()
		}
	}
}

// swapLoop hot-swaps the model versions at a fixed interval until stop
// is closed and returns how long each Server.Load took.
func (e *servingEnv) swapLoop(t0 time.Time, stop <-chan struct{}) []time.Duration {
	var loads []time.Duration
	tick := time.NewTicker(swapEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return loads
		case <-tick.C:
		}
		e.swapper++
		a := e.versions[int(e.swapper)%len(e.versions)]
		s := time.Now()
		if err := e.srv.Load(modelName, a); err != nil {
			// Load only fails on a bad name or model kind, both fixed here.
			panic(err)
		}
		loads = append(loads, time.Since(s))
		e.live.Store(e.swapper)
	}
}

// check compares every 200 response bit for bit with the in-process
// scorer's answer for the same row, under one of the versions the server
// can have had while the request was handled. It returns the number of
// wrong answers and the first one described.
func (e *servingEnv) check(res *phaseResult, want [][]float64) (int, string) {
	bad, first := 0, ""
	for i := range res.reqs {
		r := &res.reqs[i]
		if r.status != http.StatusOK {
			continue
		}
		var got struct {
			Predictions []float64 `json:"predictions"`
		}
		err := json.Unmarshal(r.resp, &got)
		okAny := false
		if err == nil {
			for v := r.vFrom; v <= r.vTo+1 && !okAny; v++ {
				okAny = sameBits(got.Predictions, e.expected(i, r, want[int(v)%len(want)]))
			}
		}
		if !okAny {
			bad++
			if first == "" {
				first = fmt.Sprintf("%s request %d: response %q", res.name, i, bytes.TrimSpace(r.resp))
			}
		}
	}
	return bad, first
}

// reference scores, for every model version, the phase's rows (fresh)
// or the hot set (refit) in-process with Scorer.ScoreBatchInto.
func (e *servingEnv) reference(res *phaseResult) [][]float64 {
	x := e.hot
	if !e.tr.refit {
		x = linalg.NewMatrix(len(res.reqs), e.dim)
		for i := range res.reqs {
			copy(x.Row(i), res.reqs[i].row)
		}
	}
	want := make([][]float64, len(e.scorers))
	for v, sc := range e.scorers {
		want[v] = sc.ScoreBatchInto(x, make([]float64, x.Rows))
	}
	return want
}

// expected returns the reference answer for request i out of want, one
// version's answers from reference.
func (e *servingEnv) expected(i int, r *request, want []float64) []float64 {
	if e.tr.refit {
		i = r.hot
	}
	return want[i : i+1]
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
