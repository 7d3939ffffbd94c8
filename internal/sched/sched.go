// Package sched is the self-contained shared-memory task runtime of §2.3:
// algorithm phases are expressed as DAGs of tasks whose dependencies are
// discovered at runtime by symbolic traversals (built by the callers), and
// executed by one of three engines:
//
//   - Dynamic: the paper's in-house runtime — a HEFT (Heterogeneous Earliest
//     Finish Time) dispatcher that assigns each newly-ready task to the
//     worker queue with the smallest estimated finish time, plus work
//     stealing for when the cost model mispredicts.
//   - TaskDepend: emulates OpenMP's `omp task depend` — the same DAG but a
//     single FIFO ready queue, no cost model, no stealing.
//   - Level-by-level: the classic traversal with a barrier per tree level
//     (RunLevelsCtx), the baseline the paper improves upon.
//
// Workers are goroutines. A WorkerSpec carries a relative Speed (used only
// by the HEFT estimate), a Batch size (accelerators consume up to 8 tasks
// per dispatch), and a NoSteal flag (stealing is disabled for accelerator
// workers so the device never idles waiting on stolen scraps).
package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gofmm/internal/resilience"
)

// ErrSelfDependency is recorded by AddDep for a task depending on itself —
// a graph that could never run. The error is also remembered on the Graph so
// RunCtx refuses to execute it even if the caller ignored the return value.
var ErrSelfDependency = errors.New("sched: self dependency")

// Task is one schedulable unit. Create tasks through Graph.Add.
type Task struct {
	ID    int
	Label string
	Cost  float64 // estimated work, arbitrary units consistent across tasks
	Run   func()
	// Affinity pins the task to a specific worker index (HEFT policy only;
	// -1 means any worker). Pinned tasks are never stolen — this is the
	// paper's "enforce our scheduler to schedule L2L tasks to the GPU".
	Affinity int

	succ  []*Task
	nprec int32 // remaining unfinished predecessors

	// Tracing bookkeeping (written under Engine.mu when tracing is on).
	readyAt    time.Time // when the task was dispatched to a ready queue
	stolenFrom int       // queue the task was stolen from, or -1

	// Resilience bookkeeping (written under Engine.mu).
	attempts int  // failed execution attempts so far
	done     bool // body completed successfully
}

// Graph is a DAG of tasks built by symbolic execution of an algorithm phase.
type Graph struct {
	tasks []*Task
	err   error // first construction error (e.g. self dependency)
}

// NewGraph returns an empty DAG.
func NewGraph() *Graph { return &Graph{} }

// Add registers a task with an estimated cost and body and returns it.
func (g *Graph) Add(label string, cost float64, run func()) *Task {
	t := &Task{ID: len(g.tasks), Label: label, Cost: cost, Run: run, Affinity: -1, stolenFrom: -1}
	g.tasks = append(g.tasks, t)
	return t
}

// AddDep records that after cannot start until before finishes (a RAW edge
// in the paper's data-flow analysis). Duplicate edges are permitted;
// self-edges are rejected with ErrSelfDependency, which is also remembered
// on the graph so a later RunCtx refuses to execute it.
func (g *Graph) AddDep(before, after *Task) error {
	if before == nil || after == nil {
		err := fmt.Errorf("%w: nil task", ErrSelfDependency)
		if g.err == nil {
			g.err = err
		}
		return err
	}
	if before == after {
		err := fmt.Errorf("%w: task %q", ErrSelfDependency, after.Label)
		if g.err == nil {
			g.err = err
		}
		return err
	}
	before.succ = append(before.succ, after)
	atomic.AddInt32(&after.nprec, 1)
	return nil
}

// Err returns the first construction error recorded on the graph, if any.
func (g *Graph) Err() error { return g.err }

// WorkerSpec describes one worker of a (possibly heterogeneous) pool.
type WorkerSpec struct {
	// Speed is the relative throughput used by the HEFT finish-time
	// estimate; 1 is a baseline CPU core.
	Speed float64
	// Batch is how many ready tasks the worker consumes per dispatch
	// (accelerators use up to 8 to amortize launch latency).
	Batch int
	// NoSteal disables work stealing for this worker.
	NoSteal bool
	// Accelerator marks the worker as a throughput device; callers use it
	// to pin GEMM-heavy tasks (see Task.Affinity).
	Accelerator bool
}

// DefaultWorker is a plain CPU worker.
var DefaultWorker = WorkerSpec{Speed: 1, Batch: 1}

// Homogeneous returns p identical CPU workers.
func Homogeneous(p int) []WorkerSpec {
	specs := make([]WorkerSpec, p)
	for i := range specs {
		specs[i] = DefaultWorker
	}
	return specs
}

// Policy selects the dispatch strategy of Engine.
type Policy int

const (
	// HEFT assigns ready tasks to the worker with the earliest estimated
	// finish time and enables work stealing (the paper's dynamic runtime).
	HEFT Policy = iota
	// FIFO uses a single shared ready queue with no cost model and no
	// stealing (the `omp task depend` emulation).
	FIFO
)

func (p Policy) String() string {
	switch p {
	case HEFT:
		return "heft"
	case FIFO:
		return "fifo"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Engine executes task graphs over a worker pool.
type Engine struct {
	specs  []WorkerSpec
	policy Policy

	mu      sync.Mutex
	cond    *sync.Cond
	queues  [][]*Task // guarded by mu (per-worker for HEFT; queues[0] shared for FIFO)
	backlog []float64 // guarded by mu (estimated queued work per worker, HEFT)
	pending int       // guarded by mu (tasks not yet finished)

	// Resilience state.
	curGraph  *Graph // guarded by mu
	running   int    // guarded by mu (tasks currently inside exec)
	retries   int64  // guarded by mu (failed attempts redelivered this run)
	cancelled bool   // guarded by mu (stop dispatching; workers drain and exit)
	runErr    error  // guarded by mu (first fatal error of the run)

	// Resilience configuration (set before RunCtx).
	failTask func(label string) bool     // fault-injection hook (may be nil)
	logger   atomic.Pointer[slog.Logger] // health-event sink (may be empty)

	// trace support
	traceOn  bool
	clock    int64
	trace    []Event
	runStart time.Time
	runWall  time.Duration
	maxDepth int // deepest ready queue observed during the run
}

// Event records one task execution for tests and the tracing tools.
type Event struct {
	Task   *Task
	Worker int
	Start  int64         // logical clock at dequeue
	End    int64         // logical clock at completion
	Dur    time.Duration // wall-clock execution time of the task body
	// WallStart is the wall-clock offset of the task body's start relative
	// to the run's start (so traces from one run share a time base).
	WallStart time.Duration
	// QueueWait is how long the task sat on a ready queue between becoming
	// ready (all predecessors done) and starting execution.
	QueueWait time.Duration
	// StolenFrom is the worker whose queue the task was stolen from, or -1
	// when the task ran on the worker it was dispatched to.
	StolenFrom int
}

// NewEngine builds an engine over the given worker pool.
func NewEngine(policy Policy, specs []WorkerSpec) *Engine {
	if len(specs) == 0 {
		specs = Homogeneous(1)
	}
	for i := range specs {
		if specs[i].Speed <= 0 {
			specs[i].Speed = 1
		}
		if specs[i].Batch < 1 {
			specs[i].Batch = 1
		}
	}
	e := &Engine{specs: specs, policy: policy}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// maxTaskRetries bounds the redeliveries of one task after injected
// failures.
const maxTaskRetries = 8

// EnableTrace turns on event recording (RunCtx resets the trace).
func (e *Engine) EnableTrace() { e.traceOn = true }

// SetFaultInjector installs a chaos hook consulted before every task
// execution attempt; returning true fails the attempt (the engine
// redelivers the task, up to the retry budget). Pass nil to disable.
func (e *Engine) SetFaultInjector(f func(label string) bool) { e.failTask = f }

// SetLogger attaches a structured logger for scheduler health events —
// provable deadlocks at Error, chaos-injected retry redeliveries at Warn.
// Pass nil to detach; nothing is logged while no logger is set. Safe to
// call concurrently with a run.
func (e *Engine) SetLogger(l *slog.Logger) { e.logger.Store(l) }

// Retries returns the number of failed task attempts redelivered during the
// last run.
func (e *Engine) Retries() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.retries
}

// Trace returns the events of the last run.
func (e *Engine) Trace() []Event { return e.trace }

// RunCtx executes every task of g respecting dependencies, blocking until
// all finish, the context is cancelled, or execution fails. Worker panics
// are recovered into *resilience.PanicError; injected task failures are
// redelivered up to the retry budget and surface as ErrTaskFailed when it
// is exhausted; a DAG that can make no progress (dependency cycle) is
// detected immediately and reported as ErrStalled with the stuck
// frontier. On cancellation, queued tasks are abandoned and running bodies
// are allowed to finish. A Graph can only be run once (its dependency
// counters are consumed).
func (e *Engine) RunCtx(ctx context.Context, g *Graph) error {
	if g.err != nil {
		return g.err
	}
	nq := len(e.specs)
	if e.policy == FIFO {
		nq = 1
	}
	e.mu.Lock()
	e.queues = make([][]*Task, nq)
	e.backlog = make([]float64, nq)
	e.pending = len(g.tasks)
	e.curGraph = g
	e.running = 0
	e.retries = 0
	e.cancelled = false
	e.runErr = nil
	e.trace = nil
	e.clock = 0
	e.runStart = time.Now()
	e.runWall = 0
	e.maxDepth = 0
	// Seed the queues with the initially-ready tasks.
	for _, t := range g.tasks {
		if atomic.LoadInt32(&t.nprec) == 0 {
			e.dispatchLocked(t)
		}
	}
	e.mu.Unlock()
	if len(g.tasks) == 0 {
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(len(e.specs))
	stop := make(chan struct{})
	defer close(stop)
	// Cancellation watcher: flips the cancelled flag so sleeping workers
	// wake up and drain.
	go func() {
		select {
		case <-ctx.Done():
			e.abort(resilience.FromContext(ctx))
		case <-stop:
		}
	}()
	// Workers spawn last so they are first in line for the scheduler (on a
	// single P the last-spawned goroutine runs next — keep that a worker,
	// not a watcher, so heterogeneous pools start the way they always have).
	for w := range e.specs {
		go func(w int) {
			defer wg.Done()
			e.worker(w)
		}(w)
	}
	wg.Wait()
	e.mu.Lock()
	e.runWall = time.Since(e.runStart)
	err := e.runErr
	e.mu.Unlock()
	return err
}

// abort records the first fatal error, stops dispatch and wakes the pool.
func (e *Engine) abort(err error) {
	e.mu.Lock()
	if e.runErr == nil {
		e.runErr = err
	}
	e.cancelled = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// frontierLocked describes the unfinished tasks blocking progress: running
// and ready tasks first, then blocked ones with their open-predecessor
// counts.
// called with e.mu held.
func (e *Engine) frontierLocked() string {
	if e.curGraph == nil {
		return "(unknown)"
	}
	var active, blocked []string
	for _, t := range e.curGraph.tasks {
		if t.done {
			continue
		}
		if n := atomic.LoadInt32(&t.nprec); n > 0 {
			blocked = append(blocked, fmt.Sprintf("%s(+%d deps)", t.Label, n))
		} else {
			active = append(active, t.Label)
		}
	}
	sort.Strings(active)
	sort.Strings(blocked)
	const maxShown = 8
	out := append(active, blocked...)
	suffix := ""
	if len(out) > maxShown {
		suffix = fmt.Sprintf(" … and %d more", len(out)-maxShown)
		out = out[:maxShown]
	}
	return strings.Join(out, ", ") + suffix
}

// dispatchLocked places a ready task on a queue according to the policy.
// called with e.mu held.
func (e *Engine) dispatchLocked(t *Task) {
	if e.traceOn {
		t.readyAt = time.Now()
	}
	q := 0
	if e.policy == HEFT && t.Affinity >= 0 && t.Affinity < len(e.queues) {
		q = t.Affinity
		e.enqueueLocked(q, t)
		return
	}
	if e.policy == HEFT {
		// Earliest estimated finish time: backlog divided by speed.
		best := e.backlog[0] / e.specs[0].Speed
		for w := 1; w < len(e.queues); w++ {
			if est := e.backlog[w] / e.specs[w].Speed; est < best {
				best, q = est, w
			}
		}
	}
	e.enqueueLocked(q, t)
}

// enqueueLocked appends t to queue q and wakes the pool.
// called with e.mu held.
func (e *Engine) enqueueLocked(q int, t *Task) {
	e.queues[q] = append(e.queues[q], t)
	e.backlog[q] += t.Cost
	if d := len(e.queues[q]); d > e.maxDepth {
		e.maxDepth = d
	}
	e.cond.Broadcast()
}

// worker is the main loop of worker w.
func (e *Engine) worker(w int) {
	spec := e.specs[w]
	own := w
	if e.policy == FIFO {
		own = 0
	}
	batch := make([]*Task, 0, spec.Batch)
	for {
		e.mu.Lock()
		for {
			if e.cancelled {
				e.mu.Unlock()
				return
			}
			if len(e.queues[own]) > 0 {
				n := min(spec.Batch, len(e.queues[own]))
				batch = append(batch[:0], e.queues[own][:n]...)
				e.queues[own] = e.queues[own][n:]
				for _, t := range batch {
					e.backlog[own] -= t.Cost
				}
				e.running += len(batch)
				break
			}
			if e.policy == HEFT && !spec.NoSteal {
				if t := e.stealLocked(own); t != nil {
					batch = append(batch[:0], t)
					e.running++
					break
				}
			}
			if e.pending == 0 {
				e.mu.Unlock()
				return
			}
			// Provable deadlock: nothing queued anywhere, nothing running,
			// yet tasks remain — their predecessors can never finish (a
			// dependency cycle or a corrupted counter). Report the frontier
			// instead of sleeping forever.
			if e.running == 0 && e.allQueuesEmptyLocked() {
				first := e.runErr == nil
				var frontier string
				pending := e.pending
				if first {
					frontier = e.frontierLocked()
					e.runErr = fmt.Errorf("%w: %d tasks can never become ready; stuck frontier: %s",
						resilience.ErrStalled, pending, frontier)
				}
				e.cancelled = true
				e.cond.Broadcast()
				e.mu.Unlock()
				if l := e.logger.Load(); first && l != nil {
					l.Error("sched provable deadlock",
						"pending", pending, "frontier", frontier)
				}
				return
			}
			e.cond.Wait()
		}
		e.mu.Unlock()
		for _, t := range batch {
			e.exec(w, t)
		}
	}
}

// allQueuesEmptyLocked reports whether every ready queue is empty. Caller
// holds e.mu.
func (e *Engine) allQueuesEmptyLocked() bool {
	for _, q := range e.queues {
		if len(q) > 0 {
			return false
		}
	}
	return true
}

// stealLocked takes one task from the back of the most-loaded other queue.
// A worker slower than the victim steals only when it would finish the
// task no later than the victim clears its queued backlog: stealing
// absorbs cost-model mispredictions, it must not move work onto a worker
// that finishes it later. Between equal speeds there is no test, so a
// homogeneous pool steals whenever a queue is non-empty (a finish-time
// test there would refuse a victim's last task whenever rounding in the
// backlog sums leaves it just below that task's cost).
// called with e.mu held.
func (e *Engine) stealLocked(self int) *Task {
	victim, best := -1, 0.0
	for w := range e.queues {
		if w == self || len(e.queues[w]) == 0 {
			continue
		}
		if e.backlog[w] > best {
			best, victim = e.backlog[w], w
		}
	}
	if victim < 0 {
		return nil
	}
	q := e.queues[victim]
	t := q[len(q)-1]
	if t.Affinity >= 0 {
		return nil // pinned tasks stay on their worker
	}
	if sp, vp := e.specs[self].Speed, e.specs[victim].Speed; sp < vp && t.Cost/sp > e.backlog[victim]/vp {
		return nil
	}
	e.queues[victim] = q[:len(q)-1]
	e.backlog[victim] -= t.Cost
	t.stolenFrom = victim
	return t
}

// exec runs one task and releases its successors. Injected failures are
// redelivered up to the retry budget; panics in the task body are recovered
// into a typed error that aborts the run.
func (e *Engine) exec(w int, t *Task) {
	e.mu.Lock()
	if e.cancelled {
		e.running--
		e.mu.Unlock()
		return
	}
	// Fault injection (chaos hook): fail this attempt before the body runs,
	// so redelivery is clean.
	if e.failTask != nil && e.failTask(t.Label) {
		if t.attempts < maxTaskRetries {
			t.attempts++
			e.retries++
			attempt := t.attempts
			e.running--
			e.dispatchLocked(t)
			e.mu.Unlock()
			if l := e.logger.Load(); l != nil {
				l.Warn("task attempt failed; redelivered",
					"task", t.Label, "attempt", attempt, "max", maxTaskRetries)
			}
			return
		}
		attempts := t.attempts + 1
		if e.runErr == nil {
			e.runErr = fmt.Errorf("%w: task %q failed %d attempts",
				resilience.ErrTaskFailed, t.Label, attempts)
		}
		e.cancelled = true
		e.running--
		e.cond.Broadcast()
		e.mu.Unlock()
		if l := e.logger.Load(); l != nil {
			l.Error("task failed permanently; retry budget exhausted",
				"task", t.Label, "attempts", attempts)
		}
		return
	}
	e.mu.Unlock()

	var start int64
	var wall time.Time
	if e.traceOn {
		start = atomic.AddInt64(&e.clock, 1)
		wall = time.Now()
	}
	perr := runRecovered(t)
	e.mu.Lock()
	e.running--
	if perr != nil {
		if e.runErr == nil {
			e.runErr = perr
		}
		e.cancelled = true
		e.cond.Broadcast()
		e.mu.Unlock()
		return
	}
	if e.traceOn {
		end := atomic.AddInt64(&e.clock, 1)
		e.trace = append(e.trace, Event{
			Task: t, Worker: w, Start: start, End: end, Dur: time.Since(wall),
			WallStart:  wall.Sub(e.runStart),
			QueueWait:  wall.Sub(t.readyAt),
			StolenFrom: t.stolenFrom,
		})
	}
	t.done = true
	for _, s := range t.succ {
		if atomic.AddInt32(&s.nprec, -1) == 0 {
			e.dispatchLocked(s)
		}
	}
	e.pending--
	if e.pending == 0 {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// runRecovered executes the task body, converting a panic into a typed
// *resilience.PanicError carrying the label and stack.
func runRecovered(t *Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &resilience.PanicError{Label: t.Label, Value: r, Stack: debug.Stack()}
		}
	}()
	t.Run()
	return nil
}

// Summary condenses the last traced run into the scheduler health numbers
// the strong-scaling analysis needs: wall time, per-worker utilization,
// steal count, queue-wait totals and a critical-path estimate (the longest
// dependency chain weighted by measured body times — the lower bound no
// schedule can beat).
type Summary struct {
	Workers int
	Tasks   int
	// Wall is the wall-clock duration of the run; Busy is per-worker time
	// spent inside task bodies (the basis for the strong-scaling analysis of
	// Figure 4).
	Wall time.Duration
	Busy []time.Duration
	// Utilization is sum(Busy) / (Wall × Workers) ∈ [0, 1].
	Utilization float64
	// Steals counts tasks executed by a worker other than the one HEFT
	// dispatched them to.
	Steals int
	// Retries counts failed task attempts that were redelivered (nonzero
	// only under fault injection).
	Retries int64
	// TotalQueueWait sums the ready-to-execution latency over all tasks.
	TotalQueueWait time.Duration
	// MaxQueueDepth is the deepest any ready queue got during the run.
	MaxQueueDepth int
	// CriticalPath is the longest chain of dependent task body times.
	CriticalPath time.Duration
}

// Summary computes the summary of the last traced run (zero-valued apart
// from Workers when tracing was off).
func (e *Engine) Summary() Summary {
	s := Summary{Workers: len(e.specs), Tasks: len(e.trace), Wall: e.runWall,
		Busy: make([]time.Duration, len(e.specs)), MaxQueueDepth: e.maxDepth, Retries: e.retries}
	if len(e.trace) == 0 {
		return s
	}
	var busyTotal time.Duration
	for _, ev := range e.trace {
		s.Busy[ev.Worker] += ev.Dur
		busyTotal += ev.Dur
	}
	if e.runWall > 0 {
		s.Utilization = float64(busyTotal) / (float64(e.runWall) * float64(len(e.specs)))
	}
	dur := make(map[*Task]time.Duration, len(e.trace))
	for _, ev := range e.trace {
		dur[ev.Task] = ev.Dur
		s.TotalQueueWait += ev.QueueWait
		if ev.StolenFrom >= 0 {
			s.Steals++
		}
	}
	// Longest path over the RAW edges, memoized (the graph is a DAG).
	memo := make(map[*Task]time.Duration, len(dur))
	var chain func(t *Task) time.Duration
	chain = func(t *Task) time.Duration {
		if d, ok := memo[t]; ok {
			return d
		}
		var best time.Duration
		for _, succ := range t.succ {
			if d := chain(succ); d > best {
				best = d
			}
		}
		d := dur[t] + best
		memo[t] = d
		return d
	}
	for t := range dur {
		if d := chain(t); d > s.CriticalPath {
			s.CriticalPath = d
		}
	}
	return s
}

// RunLevelsCtx executes batches of independent closures with a barrier
// after each batch — the level-by-level traversal baseline. Within a batch
// the closures run on up to p goroutines (dynamic self-scheduling, like
// `omp parallel for schedule(dynamic)`). The context is checked at each
// barrier and before each closure (pending closures of the current batch
// are abandoned on cancellation, running ones finish), and a closure panic
// is recovered into a *resilience.PanicError that aborts the traversal
// after the current batch drains.
//
// One crew of goroutines, the caller among them, runs every batch: p of
// them, but no more than the widest batch or GOMAXPROCS (with one, the
// caller runs everything in order). At a barrier a worker yields for up to
// levelSpin before it parks, so back-to-back short batches (a compiled plan
// replays 15 of them in about a millisecond at n = 4096) do not pay a
// goroutine start and an OS-thread wake-up per batch.
func RunLevelsCtx(ctx context.Context, levels [][]func(), p int) error {
	widest := 0
	for _, batch := range levels {
		widest = max(widest, len(batch))
	}
	c := &levelCrew{
		ctx:    ctx,
		levels: levels,
		next:   make([]atomic.Int64, len(levels)),
		done:   make([]atomic.Int64, len(levels)),
	}
	c.wake.L = &c.mu
	var wg sync.WaitGroup
	for w := 1; w < min(p, widest, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run()
		}()
	}
	c.run()
	wg.Wait()
	return c.err
}

// levelSpin bounds how long a worker that finished its share of a batch
// yields before parking until the batch's last closure returns.
const levelSpin = 50 * time.Microsecond

// levelCrew is the shared state of one RunLevelsCtx call. Batch li is done
// when done[li] reaches its length; every claimed index counts, run or
// abandoned, so the barrier always opens.
type levelCrew struct {
	ctx        context.Context
	levels     [][]func()
	next, done []atomic.Int64
	failed     atomic.Bool
	mu         sync.Mutex
	wake       sync.Cond // broadcast when a batch completes
	err        error     // first failure; guarded by mu
}

// run is one worker: claim closures of each batch in turn, then wait at
// its barrier.
func (c *levelCrew) run() {
	for li, batch := range c.levels {
		if !c.failed.Load() {
			if err := resilience.FromContext(c.ctx); err != nil {
				c.fail(err)
			}
		}
		n := int64(len(batch))
		for {
			i := c.next[li].Add(1) - 1
			if i >= n {
				break
			}
			if !c.failed.Load() {
				if err := resilience.FromContext(c.ctx); err != nil {
					c.fail(err)
				} else if err := recovered(int(i), batch[i]); err != nil {
					c.fail(err)
				}
			}
			if c.done[li].Add(1) == n {
				c.mu.Lock()
				c.wake.Broadcast()
				c.mu.Unlock()
			}
		}
		c.await(li, n)
		if c.failed.Load() {
			return
		}
	}
}

// await blocks until batch li is done: yielding for up to levelSpin, then
// parked on the crew's condition variable.
func (c *levelCrew) await(li int, n int64) {
	start := time.Now()
	for c.done[li].Load() < n {
		if time.Since(start) < levelSpin {
			runtime.Gosched()
			continue
		}
		c.mu.Lock()
		for c.done[li].Load() < n {
			c.wake.Wait()
		}
		c.mu.Unlock()
	}
}

// fail records the crew's first error and stops further closures.
func (c *levelCrew) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.failed.Store(true)
}

// recovered runs one level closure, converting a panic into a typed error.
func recovered(i int, f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &resilience.PanicError{
				Label: fmt.Sprintf("level-closure(%d)", i),
				Value: r, Stack: debug.Stack(),
			}
		}
	}()
	f()
	return nil
}

// WriteDOT renders the dependency DAG in Graphviz DOT format — the
// Figure 3 picture of the paper, generated from the actual symbolic
// traversal rather than drawn by hand. Tasks are labeled and edges are the
// RAW dependencies.
func (g *Graph) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph tasks {"); err != nil {
		return err
	}
	for _, t := range g.tasks {
		if _, err := fmt.Fprintf(w, "  t%d [label=%q];\n", t.ID, t.Label); err != nil {
			return err
		}
	}
	for _, t := range g.tasks {
		for _, s := range t.succ {
			if _, err := fmt.Fprintf(w, "  t%d -> t%d;\n", t.ID, s.ID); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
