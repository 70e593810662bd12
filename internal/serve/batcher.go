package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Micro-batching metrics: how many batches were assembled, their size
// distribution, and how long a request waited in the queue before its
// batch was scored.
var (
	batchesFormed = obs.GetCounter("serve.batches")
	batchSizeHist = obs.GetHistogram("serve.batch_size")
	queueWaitHist = obs.GetHistogram("serve.queue_wait_ns")
)

// ErrDraining is returned to requests that arrive after the server
// started shutting down.
var ErrDraining = errors.New("serve: server is draining")

// drainGrace is how long closeWithin waits after canceling the batch
// context before abandoning a scorer that ignores cancellation.
const drainGrace = 250 * time.Millisecond

// scoreFunc scores every row of x. It must be bit-identical to scoring
// the rows one at a time (the repo-wide determinism contract). The
// context carries the batch deadline: a scorer that can stall (kernel
// eval under an injected-latency chaos plan) must honor it and return
// the context's error instead of a result.
type scoreFunc func(ctx context.Context, x *linalg.Matrix) ([]float64, error)

// batchRequest is one sample waiting to be scored.
type batchRequest struct {
	ctx      context.Context
	x        []float64
	enqueued time.Time
	out      chan batchResponse
}

type batchResponse struct {
	value float64
	err   error
}

// batcher is the micro-batching queue in front of one served model. A
// single goroutine drains the queue: it blocks for the first request,
// takes whatever else is already queued (up to maxBatch) without
// waiting, scores the whole batch through one scoreFunc call —
// amortizing kernel/Gram evaluation across concurrent requests — and
// delivers each result to its caller. The loop is work-conserving: the
// scorer is never idle while a request waits. Requests that arrive
// during a scoring call form the next batch, so batch size follows
// arrival rate × scoring time with no timer to tune.
//
// Batching changes only the grouping of work, never the arithmetic:
// scoreFunc is bit-identical per row regardless of batch composition,
// so a request's answer does not depend on which requests it shares a
// batch with (asserted by TestBatchingDeterminism).
type batcher struct {
	score    scoreFunc
	dim      int
	maxBatch int
	queue    chan *batchRequest

	// baseCtx is the root of every batch's scoring context; cancel is
	// the drain hammer — closeWithin fires it when the queue refuses to
	// empty within the deadline, aborting any context-honoring stall.
	baseCtx context.Context
	cancel  context.CancelFunc

	// mu serializes submit against close: a submit that passed the
	// closed check is guaranteed to finish its enqueue before close()
	// signals the run loop, so every accepted request is answered.
	mu     sync.RWMutex
	closed bool
	stop   chan struct{}
	done   chan struct{}
}

func newBatcher(score scoreFunc, dim, maxBatch int) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := &batcher{
		score:    score,
		dim:      dim,
		maxBatch: maxBatch,
		queue:    make(chan *batchRequest, 4*maxBatch),
		baseCtx:  ctx,
		cancel:   cancel,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// submit enqueues one sample and returns the channel its result will
// arrive on. The caller must have validated the sample's width. A
// canceled/expired ctx aborts the enqueue (and, via the batch deadline,
// bounds the scoring the request participates in).
func (b *batcher) submit(ctx context.Context, x []float64) (<-chan batchResponse, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrDraining
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := &batchRequest{ctx: ctx, x: x, enqueued: time.Now(), out: make(chan batchResponse, 1)}
	// May block when the queue is full; the run loop keeps consuming
	// until close() is signaled, and close() cannot be signaled while
	// this RLock is held. The ctx arm keeps a full queue from holding a
	// deadlined request hostage.
	select {
	case b.queue <- req:
		return req.out, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run is the batcher goroutine. On shutdown it keeps scoring until the
// queue is empty, so every accepted request gets an answer.
func (b *batcher) run() {
	defer close(b.done)
	for {
		var first *batchRequest
		select {
		case first = <-b.queue:
		case <-b.stop:
			// Drain: score whatever is still queued, then exit.
			select {
			case first = <-b.queue:
			default:
				return
			}
		}
		batch := b.gather(first)
		b.flush(batch)
	}
}

// gather returns first plus whatever is already queued, up to
// maxBatch, without waiting for more.
func (b *batcher) gather(first *batchRequest) []*batchRequest {
	batch := []*batchRequest{first}
	for len(batch) < b.maxBatch {
		select {
		case req := <-b.queue:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// flush scores one batch and delivers the per-request results. The
// scoring context descends from the batcher's base context (so a forced
// drain can abort it) and, when every member carries a deadline, expires
// at the latest one — scoring for a batch never outlives the last
// caller still waiting for it.
func (b *batcher) flush(batch []*batchRequest) {
	now := time.Now()
	x := linalg.NewMatrix(len(batch), b.dim)
	latest := time.Time{}
	allDeadlined := true
	for i, req := range batch {
		copy(x.Row(i), req.x)
		queueWaitHist.ObserveDuration(now.Sub(req.enqueued))
		if d, ok := req.ctx.Deadline(); ok {
			if d.After(latest) {
				latest = d
			}
		} else {
			allDeadlined = false
		}
	}
	ctx := b.baseCtx
	if allDeadlined {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(b.baseCtx, latest)
		defer cancel()
	}
	batchesFormed.Inc()
	batchSizeHist.Observe(int64(len(batch)))
	values, err := scoreSafely(ctx, b.score, x)
	for i, req := range batch {
		if err != nil {
			req.out <- batchResponse{err: err}
		} else {
			req.out <- batchResponse{value: values[i]}
		}
	}
}

// scoreSafely converts a scoring panic (e.g. a malformed model) into an
// error so one bad batch cannot take down the serving loop.
func scoreSafely(ctx context.Context, score scoreFunc, x *linalg.Matrix) (values []float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			values, err = nil, errors.New("serve: scoring panic: "+toString(r))
		}
	}()
	return score(ctx, x)
}

func toString(r any) string {
	if e, ok := r.(error); ok {
		return e.Error()
	}
	if s, ok := r.(string); ok {
		return s
	}
	return "unknown panic"
}

// close stops accepting new requests, waits for the queue to drain, and
// returns once the batcher goroutine has exited. Safe to call more than
// once. Unbounded — callers with a shutdown deadline use closeWithin.
func (b *batcher) close() {
	b.beginClose()
	<-b.done
}

// closeWithin is close with a deadline: it gives the run loop d to
// drain normally, then cancels the batch context to abort any
// context-honoring stall (injected latency, slow kernel eval), and
// finally — if the scorer ignores cancellation too — abandons the
// goroutine so shutdown always completes. Returns false only on that
// last resort.
func (b *batcher) closeWithin(d time.Duration) bool {
	b.beginClose()
	if d <= 0 {
		<-b.done
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-b.done:
		return true
	case <-timer.C:
	}
	// Deadline passed: abort in-flight scoring through the context.
	b.cancel()
	grace := time.NewTimer(drainGrace)
	defer grace.Stop()
	select {
	case <-b.done:
		return true
	case <-grace.C:
		// A truly stalled scorer (blocked outside the context). The
		// goroutine is abandoned; every queued request already holds a
		// buffered reply channel, so nothing else blocks on it.
		return false
	}
}

func (b *batcher) beginClose() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.stop)
	}
	b.mu.Unlock()
}
