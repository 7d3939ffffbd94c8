package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"gofmm/internal/linalg"
	"gofmm/internal/plan"
	"gofmm/internal/resilience"
	"gofmm/internal/telemetry"
)

// CompilePlan lowers the four-pass traversal into a flat execution plan
// (see CompilePlanCtx). It is the legacy uncancellable entry point.
func (h *Hierarchical) CompilePlan() (*plan.Plan, error) {
	return h.CompilePlanCtx(context.Background())
}

// CompilePlanCtx compiles the N2S/S2S/S2N/L2L traversal into a flat,
// replayable schedule and installs it: subsequent MatvecCtx/MatmatCtx/
// MatvecInto calls (and BatchEvaluator traffic) replay the plan instead of
// re-walking the tree. Compilation is idempotent — the first call builds,
// later calls return the installed plan. The tree interpreter remains
// available as the reference path through InterpMatvecCtx/InterpMatmatCtx
// (and again after DropPlan).
//
// When the compression did not cache its near/far blocks, compilation
// gathers them now and the plan owns them — compiling implies caching, at
// the same memory cost CacheBlocks would have paid.
func (h *Hierarchical) CompilePlanCtx(ctx context.Context) (*plan.Plan, error) {
	if p := h.evalPlan.Load(); p != nil {
		return p, nil
	}
	if err := resilience.FromContext(ctx); err != nil {
		return nil, err
	}
	h.planMu.Lock()
	defer h.planMu.Unlock()
	if p := h.evalPlan.Load(); p != nil {
		return p, nil
	}
	// Compiling implies caching: lowering gathers every uncached block, so
	// an oracle-free operator can only compile when nothing needs gathering.
	if !h.HasOracle() && h.interpNeedsOracle() {
		return nil, fmt.Errorf("core: plan compilation needs uncached blocks: %w", ErrNoOracle)
	}
	rec := h.Cfg.Telemetry
	sp := rec.StartSpan("plan.compile")
	defer sp.End()
	t0 := time.Now()
	p, err := h.lowerPlan()
	if err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	sp.SetAttr("plan.digest", p.DigestHex())
	sp.SetAttr("plan.ops", fmt.Sprintf("%d", p.NumOps()))
	if d := sp.End(); d > 0 {
		h.Stats.PlanTime = d.Seconds()
	} else {
		h.Stats.PlanTime = time.Since(t0).Seconds()
	}
	if rec != nil {
		rec.Counter("plan.compiles").Add(1)
		rec.Gauge("plan.ops").Set(float64(p.NumOps()))
		rec.Gauge("plan.batched_gemms").Set(float64(p.BatchedGemms()))
		rec.Gauge("plan.stages").Set(float64(p.NumStages()))
		rec.Gauge("plan.arena_rows").Set(float64(p.ArenaRows()))
	}
	h.evalPlan.Store(p)
	return p, nil
}

// Plan returns the installed compiled plan, or nil when evaluation still
// runs through the tree interpreter.
func (h *Hierarchical) Plan() *plan.Plan { return h.evalPlan.Load() }

// DropPlan uninstalls the compiled plan, returning evaluation to the tree
// interpreter (used by tests and by benchmarks that compare the paths).
func (h *Hierarchical) DropPlan() { h.evalPlan.Store(nil) }

// lowerPlan performs the symbolic traversal once and emits the flat
// schedule. The emitted op sequence reproduces the interpreter's kernel
// calls exactly: the same GEMMs against the same operands in the same
// accumulation order, so compiled results agree with the reference path to
// rounding (and replay-to-replay is bit-identical; see internal/plan).
//
// Arena layout: Wt, Unear, Ufar (n rows each, tree order), then per
// interior node one stacked region [w̃l; w̃r] whose halves ARE the
// children's skeleton-weight buffers (no copy op needed), then skeleton
// potentials ũ and hand-down buffers Pᵀũ for exactly the nodes the
// reachability pass proves live. Every region has a unique writing task
// per stage, and every region is written before it is read, so replays
// never zero the arena.
func (h *Hierarchical) lowerPlan() (*plan.Plan, error) {
	t := h.Tree
	n := h.K.Dim()
	nn := len(t.Nodes)
	b := plan.NewBuilder(n)

	// Reachability mirrors the interpreter's dynamic nil checks: hasS2S —
	// s2s allocates ũ; hasU — ũ exists (own far interactions or a parent
	// hand-down); hasDown — the node hands Pᵀũ to its children. Parents
	// precede children in heap order, so one forward sweep settles it.
	hasS2S := make([]bool, nn)
	hasU := make([]bool, nn)
	hasDown := make([]bool, nn)
	for id := 0; id < nn; id++ {
		nd := &h.nodes[id]
		s := len(nd.skel)
		hasS2S[id] = len(nd.far) > 0 && s > 0
		hasU[id] = hasS2S[id]
		if p := t.Parent(id); p >= 0 && hasDown[p] && s > 0 {
			hasU[id] = true
		}
		hasDown[id] = !t.IsLeaf(id) && nd.proj != nil && hasU[id] && s > 0
	}

	// Region allocation. Sibling skeleton-weight buffers are laid out as
	// the two halves of the parent's stacked N2S input, which removes the
	// interpreter's stacking copies entirely.
	wt := b.Region(n)
	unear := b.Region(n)
	ufar := b.Region(n)
	skelW := make([]plan.Ref, nn)   // w̃ per node (zero Rows = absent)
	stacked := make([]plan.Ref, nn) // [w̃l; w̃r] per interior node with a basis
	skelU := make([]plan.Ref, nn)   // ũ per node with hasU
	down := make([]plan.Ref, nn)    // Pᵀũ per node with hasDown
	projRows := func(id int) int {
		if h.nodes[id].proj == nil {
			return 0
		}
		return h.nodes[id].proj.Rows
	}
	for id := 0; id < nn; id++ {
		if t.IsLeaf(id) {
			continue
		}
		l, r := t.Left(id), t.Right(id)
		ra, rb := projRows(l), projRows(r)
		if h.nodes[id].proj != nil {
			base := b.Alloc(ra + rb)
			stacked[id] = plan.Ref{Base: base, Sub: 0, Rows: ra + rb, Span: ra + rb}
			if ra > 0 {
				skelW[l] = plan.Ref{Base: base, Sub: 0, Rows: ra, Span: ra + rb}
			}
			if rb > 0 {
				skelW[r] = plan.Ref{Base: base, Sub: ra, Rows: rb, Span: ra + rb}
			}
		} else {
			if ra > 0 {
				skelW[l] = b.Region(ra)
			}
			if rb > 0 {
				skelW[r] = b.Region(rb)
			}
		}
	}
	for id := 0; id < nn; id++ {
		if hasU[id] {
			skelU[id] = b.Region(len(h.nodes[id].skel))
		}
		if hasDown[id] {
			down[id] = b.Region(h.nodes[id].proj.Cols)
		}
	}
	// Sub-views of the three tree-order blocks (stride n).
	rows := func(region plan.Ref, lo, size int) plan.Ref {
		return plan.Ref{Base: region.Base, Sub: lo, Rows: size, Span: n}
	}

	// Stage 0: permute the external input into tree order.
	b.BeginStage("gather", false)
	b.BeginTask()
	b.Gather(t.Perm, wt)

	// N2S bottom-up, one barrier per level; a node's GEMM writes its w̃
	// half of the parent's stacked region.
	levels := t.LevelNodes()
	for l := t.Depth; l >= 0; l-- {
		opened := false
		for _, id := range levels[l] {
			nd := &h.nodes[id]
			if nd.proj == nil {
				continue
			}
			if !opened {
				b.BeginStage(fmt.Sprintf("n2s.L%02d", l), true)
				opened = true
			}
			b.BeginTask()
			if t.IsLeaf(id) {
				tn := &t.Nodes[id]
				b.Gemm(false, nd.proj, rows(wt, tn.Lo, tn.Size()), skelW[id], 0)
			} else {
				b.Gemm(false, nd.proj, stacked[id], skelW[id], 0)
			}
		}
	}

	// S2S: one parallel stage; each node's far accumulation keeps the
	// interpreter's list order, with the first emitted GEMM overwriting
	// (beta 0) in place of the interpreter's zeroed scratch.
	b.BeginStage("s2s", true)
	for id := 0; id < nn; id++ {
		if !hasS2S[id] {
			continue
		}
		nd := &h.nodes[id]
		b.BeginTask()
		emitted := false
		for k, alpha := range nd.far {
			if skelW[alpha].Rows == 0 {
				continue // the interpreter's nil/empty w̃α skip, decided statically
			}
			var beta float64
			if emitted {
				beta = 1
			}
			switch {
			case nd.cacheFar32 != nil:
				b.GemmMixed(nd.cacheFar32[k], skelW[alpha], skelU[id], beta)
			case nd.cacheFar != nil:
				b.Gemm(false, nd.cacheFar[k], skelW[alpha], skelU[id], beta)
			default:
				b.Gemm(false, h.farBlock(id, alpha), skelW[alpha], skelU[id], beta)
			}
			emitted = true
		}
		if !emitted {
			b.Zero(skelU[id]) // ũ exists but every source was skipped
		}
	}

	// S2N top-down, one barrier per level: fold the parent's hand-down
	// slice into ũ, then either hand Pᵀũ further down (interior) or emit
	// the far-field output rows (leaf).
	for l := 0; l <= t.Depth; l++ {
		opened := false
		for _, id := range levels[l] {
			nd := &h.nodes[id]
			s := len(nd.skel)
			var fold plan.Ref
			if p := t.Parent(id); p >= 0 && hasDown[p] {
				ls := len(h.nodes[t.Left(p)].skel)
				if id == t.Left(p) {
					fold = plan.Ref{Base: down[p].Base, Sub: 0, Rows: ls, Span: down[p].Rows}
				} else {
					fold = plan.Ref{Base: down[p].Base, Sub: ls, Rows: down[p].Rows - ls, Span: down[p].Rows}
				}
			}
			hasFold := fold.Rows > 0
			hasOut := hasU[id] && s > 0 && nd.proj != nil
			// A leaf whose far field is empty still owns its Ufar rows;
			// they must be cleared exactly once per replay.
			zeroUfar := t.IsLeaf(id) && !hasOut
			if !hasFold && !hasOut && !zeroUfar {
				continue
			}
			if !opened {
				b.BeginStage(fmt.Sprintf("s2n.L%02d", l), true)
				opened = true
			}
			b.BeginTask()
			if hasFold {
				if hasS2S[id] {
					b.Add(fold, skelU[id])
				} else {
					b.Copy(fold, skelU[id])
				}
			}
			if hasOut {
				if t.IsLeaf(id) {
					tn := &t.Nodes[id]
					b.Gemm(true, nd.proj, skelU[id], rows(ufar, tn.Lo, tn.Size()), 0)
				} else {
					b.Gemm(true, nd.proj, skelU[id], down[id], 0)
				}
			}
			if zeroUfar {
				tn := &t.Nodes[id]
				b.Zero(rows(ufar, tn.Lo, tn.Size()))
			}
		}
	}

	// L2L: one parallel stage; each leaf's near accumulation keeps list
	// order, first GEMM overwriting its Unear rows.
	b.BeginStage("l2l", true)
	for _, beta := range t.Leaves() {
		nd := &h.nodes[beta]
		tb := &t.Nodes[beta]
		uref := rows(unear, tb.Lo, tb.Size())
		b.BeginTask()
		if len(nd.near) == 0 {
			b.Zero(uref)
			continue
		}
		for k, alpha := range nd.near {
			ta := &t.Nodes[alpha]
			wref := rows(wt, ta.Lo, ta.Size())
			var bk float64
			if k > 0 {
				bk = 1
			}
			switch {
			case nd.cacheNear32 != nil:
				b.GemmMixed(nd.cacheNear32[k], wref, uref, bk)
			case nd.cacheNear != nil:
				b.Gemm(false, nd.cacheNear[k], wref, uref, bk)
			default:
				b.Gemm(false, h.nearBlock(beta, alpha), wref, uref, bk)
			}
		}
	}

	// Finish: fold the near field into the far field and permute out.
	b.BeginStage("finish", false)
	b.BeginTask()
	b.Add(unear, ufar)
	b.Scatter(ufar, t.IPerm)

	return b.Build()
}

// replayBlock is the compiled counterpart of evalBlock: it spans and
// accounts identically, but evaluates by replaying the installed plan into
// the caller's U (already validated by checkBlock) instead of walking the
// tree. With telemetry off it allocates nothing beyond what Execute draws
// from the plan's state cache.
func (h *Hierarchical) replayBlock(ctx context.Context, p *plan.Plan, W, U *linalg.Matrix, op string) (err error) {
	rec := h.Cfg.Telemetry
	tid, _ := telemetry.TraceIDFrom(ctx)
	// Backstop: no panic escapes the public entry points (kernel bugs and
	// injected replay faults alike become typed errors).
	defer func() {
		if r := recover(); r != nil {
			perr := &resilience.PanicError{Label: op, Value: r, Stack: debug.Stack()}
			rec.ReportCrash(op, tid, perr)
			err = perr
		}
	}()
	if err := resilience.FromContext(ctx); err != nil {
		return err
	}
	start := time.Now()
	root := rec.StartSpan(op)
	defer root.End()
	if root != nil {
		root.SetAttr(telemetry.AttrTraceID, tid)
		root.SetAttr("plan.digest", p.DigestHex()[:12])
	}
	workers := 1
	if h.Cfg.Exec != Sequential {
		workers = h.Cfg.workerCount()
	}
	opts := plan.ExecOptions{
		Workers:   workers,
		Pool:      h.Cfg.Workspace,
		Telemetry: rec,
	}
	if c := h.Cfg.Chaos; c != nil && c.Config().TaskFail > 0 {
		opts.Inject = c.TaskFail
	}
	if err = p.Execute(ctx, W, U, opts); err != nil {
		root.SetAttr("error", err.Error())
		root.End()
		var perr *resilience.PanicError
		if errors.As(err, &perr) || errors.Is(err, resilience.ErrStalled) {
			rec.ReportCrash(op, tid, err)
		}
		return err
	}
	flops := p.FlopsPerCol() * float64(W.Cols)
	atomic.StoreInt64(&h.evalFlops, int64(flops))
	secs := time.Since(start).Seconds()
	if d := root.End(); d > 0 {
		secs = d.Seconds()
	}
	h.noteEval(secs, flops)
	if rec != nil {
		rec.Counter(op + ".calls").Add(1)
		rec.Counter(op + ".flops").Add(int64(flops))
		rec.Gauge(op + ".rhs").Set(float64(W.Cols))
		rec.Histogram(op + ".latency_ms").Observe(time.Since(start).Seconds() * 1e3)
	}
	return nil
}
