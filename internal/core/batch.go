package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/telemetry"
)

// ErrEvaluatorClosed is the typed error every BatchEvaluator.Matvec
// submission receives once Close has begun: submissions after Close never
// hang, panic, or silently drop — they fail fast with this sentinel
// (dispatch with errors.Is). Requests accepted before Close are still
// served by the closing drain.
var ErrEvaluatorClosed = errors.New("core: batch evaluator closed")

// BatchOptions configures a BatchEvaluator's coalescing window. The zero
// value picks serving-oriented defaults.
type BatchOptions struct {
	// MaxBatch is the column budget per Matmat call: a flush happens as soon
	// as the pending requests reach this many right-hand sides (default 32 —
	// past the kernels' saturation width, so waiting longer buys nothing).
	MaxBatch int
	// MaxDelay bounds how long the oldest pending request waits for peers to
	// coalesce with before the batch is flushed anyway (default 250µs).
	MaxDelay time.Duration
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 250 * time.Microsecond
	}
	return o
}

// BatchStats is a snapshot of a BatchEvaluator's coalescing counters.
type BatchStats struct {
	// Requests is the number of accepted Matvec submissions; Columns the
	// total right-hand sides they carried.
	Requests, Columns int64
	// Flushes is the number of Matmat calls issued; Requests/Flushes is the
	// achieved coalescing factor.
	Flushes int64
}

type batchRes struct {
	U   *linalg.Matrix
	err error
}

type batchReq struct {
	W       *linalg.Matrix
	ctx     context.Context
	enq     time.Time
	traceID string        // caller's trace ID, "" when the ctx carried none
	out     chan batchRes // buffered(1): the flusher never blocks on delivery
}

// BatchEvaluator coalesces concurrent Matvec requests from many goroutines
// into Matmat calls — the serving-side counterpart of the batched kernels:
// individually submitted vectors would each run a GEMV-shaped four-pass
// sweep, while the coalesced block runs one GEMM-shaped sweep for everyone.
// Requests are gathered until MaxBatch columns are pending or the oldest
// request has waited MaxDelay, whichever comes first.
//
// Each submission gets exactly its own columns of the batched result (there
// is no cross-request data sharing), or a typed error: ErrCancelled /
// ErrTimeout when its context fires while queued, a *resilience.PanicError
// when a kernel panics, ErrEvaluatorClosed after Close. A panic in one
// batch is delivered to that batch's members and the evaluator keeps
// serving.
//
// With a telemetry Recorder attached to the operator's Config, the
// evaluator publishes batch.queue_depth, the batch.size and batch.wait_ms
// histograms, and batch.requests/batch.flushes counters.
type BatchEvaluator struct {
	h    *Hierarchical
	opts BatchOptions
	ctx  context.Context // bounds every flush; set at construction

	reqs   chan *batchReq
	quit   chan struct{} // closed by Close: stop coalescing, final drain
	done   chan struct{} // closed when the flusher has exited
	closed atomic.Bool

	requests atomic.Int64
	columns  atomic.Int64
	flushes  atomic.Int64
}

// NewBatchEvaluator starts a coalescing evaluator over h with an unbounded
// lifetime context. Close it to stop the background flusher.
func (h *Hierarchical) NewBatchEvaluator(opts BatchOptions) *BatchEvaluator {
	return h.NewBatchEvaluatorCtx(context.Background(), opts)
}

// NewBatchEvaluatorCtx starts a coalescing evaluator over h whose flushes
// run under ctx: cancelling it aborts in-flight Matmat work for every
// coalesced request at once. Close it to stop the background flusher.
func (h *Hierarchical) NewBatchEvaluatorCtx(ctx context.Context, opts BatchOptions) *BatchEvaluator {
	e := &BatchEvaluator{
		h:    h,
		opts: opts.withDefaults(),
		ctx:  ctx,
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	// Room for four batches of single-column requests behind the one being
	// flushed; past that, submitters block (honouring their context).
	e.reqs = make(chan *batchReq, 4*e.opts.MaxBatch)
	go e.loop()
	return e
}

// Matvec submits W (n×k, usually k = 1) and blocks until the coalesced
// result arrives, the context fires, or the evaluator closes. The returned
// matrix is freshly allocated and owned by the caller; W is only read.
// Safe for concurrent use by any number of goroutines.
func (e *BatchEvaluator) Matvec(ctx context.Context, W *linalg.Matrix) (*linalg.Matrix, error) {
	if W == nil {
		return nil, fmt.Errorf("%w: core: batch Matvec weights are nil", resilience.ErrInvalidInput)
	}
	if n := e.h.K.Dim(); W.Rows != n {
		return nil, fmt.Errorf("%w: core: batch Matvec with %d rows, matrix dim %d",
			resilience.ErrInvalidInput, W.Rows, n)
	}
	if W.Cols == 0 {
		return linalg.NewMatrix(W.Rows, 0), nil
	}
	if e.closed.Load() {
		return nil, ErrEvaluatorClosed
	}
	req := &batchReq{W: W, ctx: ctx, enq: time.Now(), out: make(chan batchRes, 1)}
	req.traceID, _ = telemetry.TraceIDFrom(ctx)
	select {
	case e.reqs <- req:
	case <-ctx.Done():
		return nil, resilience.FromContext(ctx)
	case <-e.quit:
		return nil, ErrEvaluatorClosed
	}
	select {
	case res := <-req.out:
		return e.finish(req, res)
	case <-ctx.Done():
		// The batch may still compute this request's columns; the buffered
		// out channel lets the flusher deliver into the void.
		return nil, resilience.FromContext(ctx)
	case <-e.done:
		// Flusher exited; a final non-blocking check catches the race where
		// the result was delivered as part of the closing drain.
		select {
		case res := <-req.out:
			return e.finish(req, res)
		default:
			return nil, ErrEvaluatorClosed
		}
	}
}

// finish unwraps a delivered result, recording the caller-observed request
// latency (enqueue to delivery, the number a serving SLO is written
// against) on success.
func (e *BatchEvaluator) finish(req *batchReq, res batchRes) (*linalg.Matrix, error) {
	if res.err == nil {
		e.h.Cfg.Telemetry.Histogram("matvec.latency_ms").
			Observe(time.Since(req.enq).Seconds() * 1e3)
	}
	return res.U, res.err
}

// Close stops the flusher after a final drain of already-accepted requests
// and waits for it to exit. Subsequent Matvec calls return
// ErrEvaluatorClosed. Close is idempotent and safe to call from any number
// of goroutines concurrently with Matvec: every call blocks until the
// drain completes, and no accepted request is lost.
func (e *BatchEvaluator) Close() {
	if e.closed.CompareAndSwap(false, true) {
		close(e.quit)
	}
	<-e.done
}

// Closed reports whether Close has been initiated. Serving layers consult
// it to distinguish "evaluator draining" from transient errors without
// issuing a probe request.
func (e *BatchEvaluator) Closed() bool { return e.closed.Load() }

// Stats returns a snapshot of the coalescing counters.
func (e *BatchEvaluator) Stats() BatchStats {
	return BatchStats{
		Requests: e.requests.Load(),
		Columns:  e.columns.Load(),
		Flushes:  e.flushes.Load(),
	}
}

// loop is the single flusher goroutine: gather a window, flush it as one
// Matmat, repeat. It survives kernel panics (flush recovers and delivers
// the error to the batch) and exits only on Close.
func (e *BatchEvaluator) loop() {
	defer close(e.done)
	for {
		var first *batchReq
		select {
		case first = <-e.reqs:
		case <-e.quit:
			e.drain()
			return
		}
		batch := []*batchReq{first}
		cols := first.W.Cols
		timer := time.NewTimer(e.opts.MaxDelay)
	gather:
		for cols < e.opts.MaxBatch {
			select {
			case r := <-e.reqs:
				batch = append(batch, r)
				cols += r.W.Cols
			case <-timer.C:
				break gather
			case <-e.quit:
				break gather
			}
		}
		timer.Stop()
		e.flush(batch)
	}
}

// drain serves every request still sitting in the queue at Close time as
// one final batch (they were accepted before Close and must not be lost).
func (e *BatchEvaluator) drain() {
	var batch []*batchReq
	for {
		select {
		case r := <-e.reqs:
			batch = append(batch, r)
		default:
			if len(batch) > 0 {
				e.flush(batch)
			}
			return
		}
	}
}

// flush assembles the pending requests into one n×cols block, evaluates it
// with a single Matmat, and scatters per-request results. All assembly
// scratch comes from the configured workspace pool.
//
// Each flush mints its own trace ID: the flush span carries it, every
// member request gets a zero-length "batch.request" child span linking the
// caller's trace ID to it, and the Matmat runs under a context tagged with
// it — so a slow or crashed batch is attributable to the exact requests it
// coalesced, and each request's span feed entry names the flush that
// served it.
func (e *BatchEvaluator) flush(batch []*batchReq) {
	rec := e.h.Cfg.Telemetry
	flushID := telemetry.NewTraceID()
	// A panic anywhere below must not kill the flusher: convert it to a
	// typed error for this batch's members and keep serving. (MatmatCtx has
	// its own recover; this backstop covers the assembly/scatter code.)
	defer func() {
		if r := recover(); r != nil {
			err := &resilience.PanicError{Label: "batch.flush", Value: r, Stack: debug.Stack()}
			rec.ReportCrash("batch.flush", flushID, err)
			for _, req := range batch {
				select {
				case req.out <- batchRes{err: err}:
				default:
				}
			}
		}
	}()
	now := time.Now()
	// Drop members whose context fired while they were queued: they already
	// gave up, and shrinking the block is free at this point.
	live := batch[:0]
	for _, req := range batch {
		if err := resilience.FromContext(req.ctx); err != nil {
			req.out <- batchRes{err: err}
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	cols := 0
	for _, req := range live {
		cols += req.W.Cols
	}
	e.requests.Add(int64(len(live)))
	e.columns.Add(int64(cols))
	e.flushes.Add(1)
	fsp := rec.StartSpan("batch.flush")
	defer fsp.End()
	fsp.SetAttr(telemetry.AttrTraceID, flushID)
	fsp.SetAttr("batch.cols", fmt.Sprintf("%d", cols))
	for _, req := range live {
		rs := fsp.StartSpan("batch.request")
		rs.SetAttr(telemetry.AttrTraceID, req.traceID)
		rs.SetAttr("flush_trace_id", flushID)
		rs.End()
	}
	if rec != nil {
		rec.Gauge("batch.queue_depth").Set(float64(len(e.reqs)))
		rec.Histogram("batch.size").Observe(float64(cols))
		for _, req := range live {
			rec.Histogram("batch.wait_ms").Observe(now.Sub(req.enq).Seconds() * 1e3)
		}
		rec.Counter("batch.requests").Add(int64(len(live)))
		rec.Counter("batch.flushes").Add(1)
	}
	n := e.h.K.Dim()
	pool := e.h.Cfg.Workspace
	X := pool.GetMatrix(n, cols)
	at := 0
	for _, req := range live {
		X.View(0, at, n, req.W.Cols).CopyFrom(req.W)
		at += req.W.Cols
	}
	U, err := e.h.MatmatCtx(telemetry.ContextWithTraceID(e.ctx, flushID), X)
	pool.PutMatrix(X)
	if err != nil {
		fsp.SetAttr("error", err.Error())
		for _, req := range live {
			req.out <- batchRes{err: err}
		}
		return
	}
	at = 0
	for _, req := range live {
		k := req.W.Cols
		out := linalg.NewMatrix(n, k)
		out.CopyFrom(U.View(0, at, n, k))
		at += k
		req.out <- batchRes{U: out}
	}
	// U was freshly allocated by MatmatCtx; file it in the pool for the
	// next assembly of a similar size.
	pool.PutMatrix(U)
}
