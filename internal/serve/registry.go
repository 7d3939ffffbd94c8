package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/hss"
	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/telemetry"
)

// EvalFunc is one evaluation entry point of an operator: U = f(ctx, W).
// The serving layer treats it as untrusted — panics are contained and
// converted to *resilience.PanicError at the call site.
type EvalFunc func(ctx context.Context, W *linalg.Matrix) (*linalg.Matrix, error)

// OperatorSpec describes one servable operator. Matvec is required; Matmat
// and Solve are optional (requests for absent operations get
// ErrUnsupported). Close, when set, is invoked during Registry.Close /
// server drain — it is where a BatchEvaluator performs its final flush.
type OperatorSpec struct {
	Name   string
	Dim    int
	Matvec EvalFunc
	Matmat EvalFunc
	Solve  EvalFunc
	Close  func()
}

// Limits bundles the per-operator protection configuration.
type Limits struct {
	Admission AdmissionConfig
	Breaker   BreakerConfig
}

// Operator is a registered operator wrapped in its protection stack:
// breaker → admission → panic-contained evaluation. All methods are safe
// for concurrent use.
//
// Every evaluation pins the operator with a reference; Swap and Deregister
// retire it instead of closing it, so in-flight evaluations finish on the
// operator they started on and Close (evaluator flush, store unmap) fires
// only when the last one releases. A call entering through a stale handle
// after retirement is forwarded to the current registration of the same
// name, so swapping is invisible to clients.
type Operator struct {
	spec OperatorSpec
	adm  *admission
	brk  *breaker
	rec  *telemetry.Recorder
	reg  *Registry

	lifeMu  sync.Mutex
	refs    int  // guarded by lifeMu
	retired bool // guarded by lifeMu

	closeOnce sync.Once
}

// acquire pins the operator for one evaluation; false once retired.
func (o *Operator) acquire() bool {
	o.lifeMu.Lock()
	defer o.lifeMu.Unlock()
	if o.retired {
		return false
	}
	o.refs++
	return true
}

// release drops one evaluation pin, firing Close if this was the last
// in-flight evaluation of a retired operator.
func (o *Operator) release() {
	o.lifeMu.Lock()
	o.refs--
	last := o.retired && o.refs == 0
	o.lifeMu.Unlock()
	if last {
		o.close()
	}
}

// retire removes the operator from service: no new evaluations are
// admitted, and Close fires as soon as the in-flight ones drain
// (immediately when idle).
func (o *Operator) retire() {
	o.lifeMu.Lock()
	o.retired = true
	idle := o.refs == 0
	o.lifeMu.Unlock()
	if idle {
		o.close()
	}
}

// Registry is a named set of servable operators sharing one telemetry
// recorder. The registry owns operator lifecycle: Close drains every
// operator's evaluator exactly once.
type Registry struct {
	rec *telemetry.Recorder

	mu  sync.RWMutex
	ops map[string]*Operator // guarded by mu
}

// NewRegistry builds an empty registry publishing serve.* metrics to rec
// (nil disables recording).
func NewRegistry(rec *telemetry.Recorder) *Registry {
	return &Registry{rec: rec, ops: map[string]*Operator{}}
}

// newOperator validates spec and builds the protection stack.
func (r *Registry) newOperator(spec OperatorSpec, lim Limits) (*Operator, error) {
	if spec.Name == "" || spec.Matvec == nil || spec.Dim <= 0 {
		return nil, fmt.Errorf("%w: serve: operator needs a name, a positive dim and a Matvec",
			resilience.ErrInvalidInput)
	}
	op := &Operator{spec: spec, adm: newAdmission(lim.Admission), rec: r.rec, reg: r}
	op.brk = newBreaker(lim.Breaker, nil, func(BreakerState) { r.publishBreakerState() })
	return op, nil
}

// Register adds an operator under spec.Name. Re-registering a live name is
// an error — replacing a serving operator is Swap's job, and removal is
// Deregister's.
func (r *Registry) Register(spec OperatorSpec, lim Limits) (*Operator, error) {
	op, err := r.newOperator(spec, lim)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.ops[spec.Name]; dup {
		return nil, fmt.Errorf("%w: serve: operator %q already registered",
			resilience.ErrInvalidInput, spec.Name)
	}
	r.ops[spec.Name] = op
	return op, nil
}

// Swap atomically installs spec under spec.Name, replacing any current
// registration. The old operator is retired, not closed: evaluations
// already running on it finish and its Close (evaluator flush, and for
// store-loaded operators the munmap) fires only after the last one
// releases. Requests that raced the swap through a stale handle forward to
// the replacement. Installing a previously unused name is allowed — Swap
// then behaves like Register.
func (r *Registry) Swap(spec OperatorSpec, lim Limits) (*Operator, error) {
	op, err := r.newOperator(spec, lim)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	old := r.ops[spec.Name]
	r.ops[spec.Name] = op
	r.mu.Unlock()
	swaps := r.rec.Counter("store.swaps") // created eagerly so the metric is always exposed
	if old != nil {
		old.retire()
		swaps.Add(1)
	}
	return op, nil
}

// Deregister removes name from service. In-flight evaluations finish on the
// removed operator before its Close fires; subsequent requests get
// ErrUnknownOperator.
func (r *Registry) Deregister(name string) error {
	r.mu.Lock()
	op, ok := r.ops[name]
	delete(r.ops, name)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownOperator, name)
	}
	op.retire()
	return nil
}

// hierarchicalSpec builds the standard serving wiring for a compressed
// operator: Matvec through a coalescing BatchEvaluator (the admission
// gate's concurrency becomes Matmat width), Matmat direct, and — for
// HSS-shaped compressions (Budget 0) with a live entry oracle — Solve
// through a hierarchical factorization built eagerly here so the first
// solve request does not pay it. Operators loaded from the store have no
// oracle to factor from, so they serve matvec/matmat only. The spec's
// Close flushes the evaluator and releases the operator's backing store
// file (unmapping it, when the load was mmap-served) — an operator whose
// Close has fired has left service for good.
func (r *Registry) hierarchicalSpec(ctx context.Context, name string, h *core.Hierarchical, opts core.BatchOptions) (OperatorSpec, error) {
	// Compile the flat evaluation plan up front so every served matvec and
	// matmat replays the compiled schedule instead of re-walking the tree
	// (idempotent: a no-op when a plan is already installed, as on every
	// operator core.LoadFrom returns).
	if _, err := h.CompilePlanCtx(ctx); err != nil {
		return OperatorSpec{}, fmt.Errorf("serve: operator %q: %w", name, err)
	}
	ev := h.NewBatchEvaluatorCtx(ctx, opts)
	spec := OperatorSpec{
		Name:   name,
		Dim:    h.N(),
		Matvec: ev.Matvec,
		Matmat: h.MatmatCtx,
		Close: func() {
			ev.Close()
			if err := h.ReleaseStore(); err != nil {
				if l := r.rec.Logger(); l != nil {
					l.Warn("serve: releasing operator store failed", "operator", name, "err", err.Error())
				}
			}
		},
	}
	if h.IsHSS() && h.HasOracle() {
		hs, err := hss.FromGOFMM(h)
		if err != nil {
			ev.Close()
			return OperatorSpec{}, fmt.Errorf("serve: operator %q: %w", name, err)
		}
		f, err := hs.FactorCtx(ctx)
		if err != nil {
			ev.Close()
			return OperatorSpec{}, fmt.Errorf("serve: operator %q: %w", name, err)
		}
		spec.Solve = f.SolveCtx
	}
	return spec, nil
}

// RegisterHierarchical registers a compressed operator with the standard
// wiring (see hierarchicalSpec). Re-registering a live name is an error;
// use SwapHierarchical to replace one in flight.
func (r *Registry) RegisterHierarchical(ctx context.Context, name string, h *core.Hierarchical, opts core.BatchOptions, lim Limits) (*Operator, error) {
	spec, err := r.hierarchicalSpec(ctx, name, h, opts)
	if err != nil {
		return nil, err
	}
	op, err := r.Register(spec, lim)
	if err != nil {
		spec.Close()
		return nil, err
	}
	return op, nil
}

// SwapHierarchical hot-swaps a compressed operator into the name with the
// standard wiring (see hierarchicalSpec and Swap): the previous operator
// keeps serving its in-flight evaluations and is closed — flushing its
// evaluator and unmapping its store file — only after the last one ends.
func (r *Registry) SwapHierarchical(ctx context.Context, name string, h *core.Hierarchical, opts core.BatchOptions, lim Limits) (*Operator, error) {
	spec, err := r.hierarchicalSpec(ctx, name, h, opts)
	if err != nil {
		return nil, err
	}
	op, err := r.Swap(spec, lim)
	if err != nil {
		spec.Close()
		return nil, err
	}
	return op, nil
}

// Get resolves a registered operator by name.
func (r *Registry) Get(name string) (*Operator, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	op, ok := r.ops[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownOperator, name)
	}
	return op, nil
}

// Names lists the registered operators in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.ops))
	for name := range r.ops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close retires every operator: each one's evaluator drains and flushes as
// soon as its in-flight evaluations end (immediately when idle). Idempotent
// per operator.
func (r *Registry) Close() {
	r.mu.RLock()
	ops := make([]*Operator, 0, len(r.ops))
	for _, op := range r.ops {
		ops = append(ops, op)
	}
	r.mu.RUnlock()
	for _, op := range ops {
		op.retire()
	}
}

// publishBreakerState sets the serve.breaker_state gauge to the most
// degraded state across all registered operators (open=1 beats
// half-open=2 beats closed=0 in severity ordering open > half-open >
// closed; the gauge carries the numeric BreakerState of the worst one).
func (r *Registry) publishBreakerState() {
	r.mu.RLock()
	worst := BreakerClosed
	rank := func(s BreakerState) int {
		switch s {
		case BreakerOpen:
			return 2
		case BreakerHalfOpen:
			return 1
		default:
			return 0
		}
	}
	for _, op := range r.ops {
		if rank(op.brk.current()) > rank(worst) {
			worst = op.brk.current()
		}
	}
	r.mu.RUnlock()
	r.rec.Gauge("serve.breaker_state").Set(float64(worst))
}

// Name returns the operator's registered name.
func (o *Operator) Name() string { return o.spec.Name }

// Dim returns the operator's dimension.
func (o *Operator) Dim() int { return o.spec.Dim }

// CanSolve reports whether the operator registered a Solve path.
func (o *Operator) CanSolve() bool { return o.spec.Solve != nil }

// CanMatmat reports whether the operator registered a Matmat path.
func (o *Operator) CanMatmat() bool { return o.spec.Matmat != nil }

// BreakerState returns the operator's current breaker state.
func (o *Operator) BreakerState() BreakerState { return o.brk.current() }

func (o *Operator) close() {
	o.closeOnce.Do(func() {
		if o.spec.Close != nil {
			o.spec.Close()
		}
	})
}

// Matvec serves one matvec request through the protection stack.
func (o *Operator) Matvec(ctx context.Context, W *linalg.Matrix) (*linalg.Matrix, error) {
	return o.dispatch(ctx, "matvec", W)
}

// Matmat serves one multi-RHS request through the protection stack.
func (o *Operator) Matmat(ctx context.Context, X *linalg.Matrix) (*linalg.Matrix, error) {
	return o.dispatch(ctx, "matmat", X)
}

// Solve serves one solve request through the protection stack.
func (o *Operator) Solve(ctx context.Context, B *linalg.Matrix) (*linalg.Matrix, error) {
	return o.dispatch(ctx, "solve", B)
}

// dispatch pins an operator and runs the evaluation on it. When the handle
// is already retired (the caller resolved it just before a Swap or
// Deregister landed), the call follows the registry to the current
// registration of the same name — a swap never fails a request, and only
// a deregistered name surfaces ErrUnknownOperator.
func (o *Operator) dispatch(ctx context.Context, what string, W *linalg.Matrix) (*linalg.Matrix, error) {
	cur := o
	for hop := 0; hop < 8; hop++ {
		if cur.acquire() {
			return cur.do(ctx, what, W)
		}
		if cur.reg == nil {
			break
		}
		next, err := cur.reg.Get(cur.spec.Name)
		if err != nil {
			return nil, err
		}
		if next == cur {
			break
		}
		cur = next
	}
	return nil, fmt.Errorf("%w: %q (retired)", ErrUnknownOperator, o.spec.Name)
}

// do runs one pinned evaluation through breaker → admission → contained
// eval, maintaining the serve.{admitted,shed} counters and feeding every
// outcome back to the breaker. Exactly one brk.record is paired with each
// successful brk.allow, including on the shed and cancellation paths
// (those outcomes are neutral to the breaker's health accounting). The
// caller must have pinned o with acquire; do releases the pin.
func (o *Operator) do(ctx context.Context, what string, W *linalg.Matrix) (U *linalg.Matrix, err error) {
	defer o.release()
	var eval EvalFunc
	switch what {
	case "matvec":
		eval = o.spec.Matvec
	case "matmat":
		eval = o.spec.Matmat
	case "solve":
		eval = o.spec.Solve
	}
	if eval == nil {
		return nil, fmt.Errorf("%w: operator %q has no %s", ErrUnsupported, o.spec.Name, what)
	}
	if err := resilience.FromContext(ctx); err != nil {
		return nil, err
	}
	if err := o.brk.allow(); err != nil {
		o.rec.Counter("serve.breaker_rejects").Add(1)
		return nil, err
	}
	defer func() { o.brk.record(err) }()
	if err = o.adm.acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			o.rec.Counter("serve.shed").Add(1)
		}
		return nil, err
	}
	defer o.adm.release()
	o.rec.Counter("serve.admitted").Add(1)
	running, queued := o.adm.depth()
	o.rec.Gauge("serve.executing").Set(float64(running))
	o.rec.Gauge("serve.queue_depth").Set(float64(queued))
	start := time.Now()
	U, err = o.evalContained(ctx, what, eval, W)
	o.rec.Histogram("serve.latency_ms").Observe(time.Since(start).Seconds() * 1e3)
	if err != nil {
		o.rec.Counter("serve.errors").Add(1)
	}
	return U, err
}

// evalContained invokes eval with a panic backstop: a panicking operator
// (poisoned oracle, kernel bug) must cost exactly the requests it served,
// never the serving goroutine or the process. The panic becomes a typed
// *resilience.PanicError that the breaker counts toward tripping and the
// flight recorder captures via the crash funnel.
func (o *Operator) evalContained(ctx context.Context, what string, eval EvalFunc, W *linalg.Matrix) (U *linalg.Matrix, err error) {
	defer func() {
		if r := recover(); r != nil {
			perr := &resilience.PanicError{
				Label: "serve." + o.spec.Name + "." + what,
				Value: r,
				Stack: debug.Stack(),
			}
			tid, _ := telemetry.TraceIDFrom(ctx)
			o.rec.ReportCrash(perr.Label, tid, perr)
			U, err = nil, perr
		}
	}()
	return eval(ctx, W)
}
