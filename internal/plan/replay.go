package plan

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/sched"
	"gofmm/internal/telemetry"
	"gofmm/internal/workspace"
)

// ExecOptions configures one replay.
type ExecOptions struct {
	// Workers > 1 replays parallel stages through the sched engine's
	// level runner (one barrier per stage); otherwise the whole schedule
	// runs in order on the calling goroutine.
	Workers int
	// Pool, when non-nil, counts the arena each new replay binding
	// allocates. It stays only for the benchmark's workspace.hit_frac and
	// goes in the last step of ROADMAP item 11.
	Pool *workspace.Pool
	// Telemetry, when non-nil, records the plan.replay_ms histogram and the
	// plan.replays counter. Nil disables recording.
	Telemetry *telemetry.Recorder
	// Inject, when non-nil, is consulted once per replay at the named site;
	// returning true injects a panic (the chaos hook used by the fault
	// suites). The panic surfaces through the caller's backstop exactly
	// like a kernel bug would.
	Inject func(site string) bool
}

// replayState is one reusable arena binding for a fixed RHS width r: the
// arena storage plus a prebuilt matrix header for every op operand, so a
// steady-state replay performs no heap allocation. A state is used by one
// replay at a time; Plan.Execute checks states out of a per-width pool.
type replayState struct {
	r     int
	arena []float64
	bview []*linalg.Matrix // per-op B operand header (nil where unused or External)
	cview []*linalg.Matrix // per-op C operand header (nil where External)

	// levels holds the parallel replay closures, one level per stage,
	// built lazily on first parallel Execute and rebound through W/U below.
	levels [][]func()

	// External bindings of the current replay, set by Execute before the
	// ops run and cleared after: the input and the output of External
	// gathers.
	W, U *linalg.Matrix
}

// bind returns a matrix header over ref's slice of the arena. The slice's
// capacity is clamped, so an append or reslice cannot reach a neighbouring
// region.
func (st *replayState) bind(ref Ref) *linalg.Matrix {
	lo, hi := ref.Base*st.r, (ref.Base+ref.Span)*st.r
	region := linalg.FromColumnMajor(ref.Span, st.r, st.arena[lo:hi:hi])
	return region.View(ref.Sub, 0, ref.Rows, st.r)
}

// newState builds an arena binding for width r.
func (p *Plan) newState(r int, pool *workspace.Pool) *replayState {
	st := &replayState{
		r:     r,
		arena: pool.Get(p.ArenaFloats(r)),
		bview: make([]*linalg.Matrix, len(p.ops)),
		cview: make([]*linalg.Matrix, len(p.ops)),
	}
	for i := range p.ops {
		op := &p.ops[i]
		if op.Kind != OpZero && op.B != External {
			st.bview[i] = st.bind(op.B)
		}
		if op.C != External {
			st.cview[i] = st.bind(op.C)
		}
	}
	return st
}

// getState checks a binding for width r out of the per-width pool,
// building one on a miss.
func (p *Plan) getState(r int, pool *workspace.Pool) *replayState {
	p.statesMu.Lock()
	if p.states == nil {
		p.states = make(map[int]*sync.Pool)
	}
	sp := p.states[r]
	if sp == nil {
		sp = &sync.Pool{}
		p.states[r] = sp
	}
	p.statesMu.Unlock()
	if v := sp.Get(); v != nil {
		return v.(*replayState)
	}
	return p.newState(r, pool)
}

// putState returns a binding to its pool for the next replay of width r.
func (p *Plan) putState(st *replayState) {
	st.W, st.U = nil, nil
	p.statesMu.Lock()
	sp := p.states[st.r]
	p.statesMu.Unlock()
	if sp != nil {
		sp.Put(st)
	}
}

// Execute replays the plan: U = K̃·W for the n×r input W into the
// caller-provided n×r output U. It is safe for concurrent use — each call
// binds its own arena. The context is honoured at every stage barrier.
func (p *Plan) Execute(ctx context.Context, W, U *linalg.Matrix, opts ExecOptions) error {
	if W == nil || U == nil {
		return fmt.Errorf("%w: plan: Execute with nil input or output", resilience.ErrInvalidInput)
	}
	if W.Rows != p.n || U.Rows != p.n || U.Cols != W.Cols {
		return fmt.Errorf("%w: plan: Execute with %d×%d input and %d×%d output, plan dim %d",
			resilience.ErrInvalidInput, W.Rows, W.Cols, U.Rows, U.Cols, p.n)
	}
	if err := resilience.FromContext(ctx); err != nil {
		return err
	}
	if opts.Inject != nil && opts.Inject("plan.replay") {
		panic(fmt.Sprintf("chaos: injected replay failure (plan %s)", p.DigestHex()[:12]))
	}
	start := time.Now()
	st := p.getState(W.Cols, opts.Pool)
	defer p.putState(st)
	st.W, st.U = W, U
	var err error
	if opts.Workers > 1 {
		if st.levels == nil {
			st.buildLevels(p)
		}
		err = sched.RunLevelsCtx(ctx, st.levels, opts.Workers)
	} else {
		err = p.runSequential(ctx, st)
	}
	if err != nil {
		return err
	}
	if rec := opts.Telemetry; rec != nil {
		rec.Counter("plan.replays").Add(1)
		rec.Histogram("plan.replay_ms").Observe(time.Since(start).Seconds() * 1e3)
	}
	return nil
}

// runSequential replays every stage in order on the calling goroutine,
// honouring the context at stage boundaries (mirroring the interpreter's
// between-pass checks).
func (p *Plan) runSequential(ctx context.Context, st *replayState) error {
	for si := range p.stages {
		if err := resilience.FromContext(ctx); err != nil {
			return err
		}
		stage := &p.stages[si]
		for _, t := range stage.tasks {
			p.runTask(st, t.Lo, t.Hi)
		}
	}
	return nil
}

// buildLevels materializes the parallel replay closures: one level per
// stage (RunLevelsCtx barriers between levels), one closure per task.
// Tasks of a stage write disjoint regions and each region has a single
// writer with a fixed internal op order, so any interleaving produces
// bit-identical results.
func (st *replayState) buildLevels(p *Plan) {
	st.levels = make([][]func(), len(p.stages))
	for si := range p.stages {
		stage := &p.stages[si]
		batch := make([]func(), len(stage.tasks))
		for ti, t := range stage.tasks {
			lo, hi := t.Lo, t.Hi
			batch[ti] = func() { p.runTask(st, lo, hi) }
		}
		st.levels[si] = batch
	}
}

// runTask executes ops [lo, hi) in order.
func (p *Plan) runTask(st *replayState, lo, hi int) {
	for i := lo; i < hi; i++ {
		op := &p.ops[i]
		switch op.Kind {
		case OpGather:
			src, dst := st.bview[i], st.cview[i]
			if op.B == External {
				src = st.W
			}
			if op.C == External {
				dst = st.U
			}
			src.RowsGatherInto(op.Idx, dst)
		case OpGemm:
			// One call per precision: the linalg entry picks the kernel from
			// the record's orientation and the replay width alone, so width-1
			// replays reach the fused GEMV kernels and repeated replays stay
			// bit-identical.
			if op.A32 != nil {
				linalg.GemmMixed(op.TransA, 1, op.A32, st.bview[i], op.Beta, st.cview[i])
			} else {
				linalg.GemmConst(op.TransA, 1, op.A, st.bview[i], op.Beta, st.cview[i])
			}
		case OpCopy:
			st.cview[i].CopyFrom(st.bview[i])
		case OpAdd:
			st.cview[i].AddScaled(1, st.bview[i])
		case OpZero:
			st.cview[i].Zero()
		case OpScatter:
			st.cview[i].RowsScatter(op.Idx, st.bview[i])
		}
	}
}
