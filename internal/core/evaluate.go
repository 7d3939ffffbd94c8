package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync/atomic"
	"time"

	"gofmm/internal/linalg"
	"gofmm/internal/plan"
	"gofmm/internal/resilience"
	"gofmm/internal/sched"
	"gofmm/internal/telemetry"
	"gofmm/internal/tree"
	"gofmm/internal/workspace"
)

// evalState holds the per-Matvec buffers of Algorithm 2.7.
type evalState struct {
	r int
	// Wt and the two outputs are in tree order (rows = tree positions).
	Wt, Unear, Ufar *linalg.Matrix
	// skelW[α] = w̃α (skeleton weights, rank×r), written by N2S.
	skelW []*linalg.Matrix
	// skelU[α] = ũα (skeleton potentials), written by S2S, read by S2N.
	skelU []*linalg.Matrix
	// down[α] = P_α̃[l̃r̃]ᵀ · ũα, the contribution node α hands its children
	// during S2N (nil for leaves and skeleton-less nodes).
	down []*linalg.Matrix
	// pool, when non-nil, is where every buffer above came from and where
	// release() returns them. Kernels must route transient matrices through
	// getMat so pooled and unpooled evaluations stay byte-identical.
	pool *workspace.Pool
}

// getMat returns a zeroed rows×cols scratch matrix, pooled when possible.
func (st *evalState) getMat(rows, cols int) *linalg.Matrix {
	return st.pool.GetMatrix(rows, cols) // nil pool falls back to NewMatrix
}

// release returns every buffer to the pool. Safe to call with nil pool
// (no-op) and with nil entries; the state must not be used afterwards.
func (st *evalState) release() {
	if st.pool == nil {
		return
	}
	st.pool.PutMatrix(st.Wt)
	st.pool.PutMatrix(st.Unear)
	st.pool.PutMatrix(st.Ufar)
	for _, m := range st.skelW {
		st.pool.PutMatrix(m)
	}
	for _, m := range st.skelU {
		st.pool.PutMatrix(m)
	}
	for _, m := range st.down {
		st.pool.PutMatrix(m)
	}
}

// Matvec computes U ≈ K·W for an N×r block of right-hand sides using the
// compressed representation (Algorithm 2.7: N2S, S2S, S2N, L2L) under the
// configured executor. GOFMM's support for multiple right-hand sides is what
// makes it useful for block Krylov and Monte Carlo sampling workloads.
// Matvec is the legacy uncancellable entry point; it panics on the errors
// MatvecCtx would return.
func (h *Hierarchical) Matvec(W *linalg.Matrix) *linalg.Matrix {
	U, err := h.MatvecCtx(context.Background(), W)
	if err != nil {
		panic(err)
	}
	return U
}

// MatvecCtx is Matvec with cancellation and typed errors: invalid weights
// return ErrInvalidInput, the context is honoured between (and for the task
// executors, within) the four phases, and a panic in any task body surfaces
// as a *resilience.PanicError instead of escaping.
func (h *Hierarchical) MatvecCtx(ctx context.Context, W *linalg.Matrix) (*linalg.Matrix, error) {
	return h.evalNew(ctx, h.evalPlan.Load(), W, "matvec")
}

// InterpMatvecCtx is MatvecCtx pinned to the tree interpreter: it bypasses
// any installed compiled plan and re-walks the four passes. It is the
// reference path — the oracle the plan equivalence suite compares against —
// and is also useful for A/B benchmarks (see `repro pr8`).
func (h *Hierarchical) InterpMatvecCtx(ctx context.Context, W *linalg.Matrix) (*linalg.Matrix, error) {
	return h.evalNew(ctx, nil, W, "matvec")
}

// MatvecInto computes U ≈ K·W into the caller's n×r output U, where r is
// W.Cols; W and U must not overlap. With a compiled plan installed
// (CompilePlanCtx, or a load of a store saved compiled) it replays the
// plan straight into U, and with telemetry off a steady-state call
// allocates nothing: the replay arena comes from the plan's state cache
// (or Config.Workspace). On an uncompiled operator it runs the tree
// interpreter and allocates exactly as MatvecCtx does, minus the output.
// Errors are those of MatvecCtx, plus ErrInvalidInput for a nil or
// mis-shaped U.
func (h *Hierarchical) MatvecInto(ctx context.Context, W, U *linalg.Matrix) error {
	if U == nil {
		return fmt.Errorf("%w: core: matvec output is nil", resilience.ErrInvalidInput)
	}
	if err := h.checkBlock(W, U, "matvec"); err != nil {
		return err
	}
	return h.evalInto(ctx, h.evalPlan.Load(), W, U, "matvec")
}

// evalNew validates W, allocates the n×W.Cols output and evaluates into it.
func (h *Hierarchical) evalNew(ctx context.Context, p *plan.Plan, W *linalg.Matrix, op string) (*linalg.Matrix, error) {
	if err := h.checkBlock(W, nil, op); err != nil {
		return nil, err
	}
	U := linalg.NewMatrix(h.K.Dim(), W.Cols)
	if err := h.evalInto(ctx, p, W, U, op); err != nil {
		return nil, err
	}
	return U, nil
}

// evalInto evaluates a validated block into U by replaying p, or through
// the tree interpreter when p is nil.
func (h *Hierarchical) evalInto(ctx context.Context, p *plan.Plan, W, U *linalg.Matrix, op string) error {
	if p != nil {
		return h.replayBlock(ctx, p, W, U, op)
	}
	return h.evalBlock(ctx, W, U, op)
}

// checkBlock validates the n×r weights of a block evaluation and, when U
// is non-nil, the caller-supplied n×r output.
func (h *Hierarchical) checkBlock(W, U *linalg.Matrix, op string) error {
	n := h.K.Dim()
	if W == nil {
		return fmt.Errorf("%w: core: %s weights are nil", resilience.ErrInvalidInput, op)
	}
	if W.Rows != n {
		return fmt.Errorf("%w: core: %s with %d rows, matrix dim %d",
			resilience.ErrInvalidInput, op, W.Rows, n)
	}
	if U != nil && (U.Rows != n || U.Cols != W.Cols) {
		return fmt.Errorf("%w: core: %s into a %d×%d output, want %d×%d",
			resilience.ErrInvalidInput, op, U.Rows, U.Cols, n, W.Cols)
	}
	return nil
}

// noteEval records the cost of the evaluation that just finished into
// Stats. EvalTime/EvalFlops describe "the last" evaluation, so concurrent
// requests legitimately overwrite each other — but the writes themselves
// must be serialized, since one Hierarchical serves many in-flight replays.
func (h *Hierarchical) noteEval(seconds, flops float64) {
	h.statsMu.Lock()
	h.Stats.EvalTime = seconds
	h.Stats.EvalFlops = flops
	h.statsMu.Unlock()
}

// LastEval returns the wall time and flop count of the most recent
// evaluation, consistent as a pair. Readers outside this package must use
// it instead of Stats.EvalTime/EvalFlops: those fields are rewritten by
// every concurrent replay, so direct reads race with noteEval.
func (h *Hierarchical) LastEval() (seconds, flops float64) {
	h.statsMu.Lock()
	defer h.statsMu.Unlock()
	return h.Stats.EvalTime, h.Stats.EvalFlops
}

// evalBlock is the tree interpreter behind MatvecCtx, MatmatCtx and
// MatvecInto on an operator without a compiled plan: one symbolic traversal
// and one workspace scope serve the whole n×r block, so the per-pass
// kernels are r-wide GEMMs, and the result lands in the caller's U (already
// validated by checkBlock). op names the telemetry span and counters
// ("matvec" or "matmat").
func (h *Hierarchical) evalBlock(ctx context.Context, W, U *linalg.Matrix, op string) (err error) {
	rec := h.Cfg.Telemetry
	tid, _ := telemetry.TraceIDFrom(ctx)
	// Backstop: no panic escapes the public entry points. The crash is
	// funneled to the flight recorder before the typed error returns.
	defer func() {
		if r := recover(); r != nil {
			perr := &resilience.PanicError{Label: op, Value: r, Stack: debug.Stack()}
			rec.ReportCrash(op, tid, perr)
			err = perr
		}
	}()
	n := h.K.Dim()
	if err := h.requireEvalOracle(op); err != nil {
		return err
	}
	if err := resilience.FromContext(ctx); err != nil {
		return err
	}
	start := time.Now()
	root := rec.StartSpan(op)
	// Idempotent safety net: if a kernel panics mid-pass the span still ends
	// (and reaches the flight recorder) before the backstop above reports.
	defer root.End()
	root.SetAttr(telemetry.AttrTraceID, tid)
	atomic.StoreInt64(&h.evalFlops, 0)
	t := h.Tree
	pool := h.Cfg.Workspace
	st := &evalState{
		r:     W.Cols,
		Wt:    pool.GetMatrix(n, W.Cols),
		Unear: pool.GetMatrix(n, W.Cols),
		Ufar:  pool.GetMatrix(n, W.Cols),
		skelW: make([]*linalg.Matrix, len(t.Nodes)),
		skelU: make([]*linalg.Matrix, len(t.Nodes)),
		down:  make([]*linalg.Matrix, len(t.Nodes)),
		pool:  pool,
	}
	// Release everything back to the pool on every exit path; U belongs to
	// the caller and is never pooled.
	defer st.release()
	W.RowsGatherInto(t.Perm, st.Wt)
	switch h.Cfg.Exec {
	case Sequential:
		sp := root.StartSpan("N2S")
		t.PostOrder(func(nd *tree.Node) { h.n2s(st, nd.ID) })
		sp.End()
		if err = resilience.FromContext(ctx); err != nil {
			break
		}
		sp = root.StartSpan("S2S")
		for id := range t.Nodes {
			h.s2s(st, id)
		}
		sp.End()
		if err = resilience.FromContext(ctx); err != nil {
			break
		}
		sp = root.StartSpan("S2N")
		t.PreOrder(func(nd *tree.Node) { h.s2n(st, nd.ID) })
		sp.End()
		if err = resilience.FromContext(ctx); err != nil {
			break
		}
		sp = root.StartSpan("L2L")
		for _, beta := range t.Leaves() {
			h.l2l(st, beta)
		}
		sp.End()
	case LevelByLevel:
		err = h.evalLevelByLevel(ctx, st, root)
	case Dynamic, TaskDepend:
		err = h.evalTasked(ctx, st, root)
	}
	if err != nil {
		root.SetAttr("error", err.Error())
		root.End()
		// Stalls and in-task panics are flight-recorder events: they are the
		// post-mortems the ring exists for. Plain cancellations are not.
		var perr *resilience.PanicError
		if errors.As(err, &perr) || errors.Is(err, resilience.ErrStalled) {
			rec.ReportCrash(op, tid, err)
		}
		return err
	}
	st.Ufar.AddScaled(1, st.Unear)
	st.Ufar.RowsGatherInto(t.IPerm, U)
	secs := time.Since(start).Seconds()
	if d := root.End(); d > 0 {
		secs = d.Seconds()
	}
	h.noteEval(secs, float64(atomic.LoadInt64(&h.evalFlops)))
	if rec != nil {
		rec.Counter(op + ".calls").Add(1)
		rec.Counter(op + ".flops").Add(atomic.LoadInt64(&h.evalFlops))
		rec.Gauge(op + ".rhs").Set(float64(W.Cols))
		rec.Histogram(op + ".latency_ms").Observe(time.Since(start).Seconds() * 1e3)
	}
	return nil
}

// n2s computes the skeleton weights w̃α = P_α̃α w_α (leaf) or
// P_α̃[l̃r̃] [w̃l; w̃r] (interior).
func (h *Hierarchical) n2s(st *evalState, id int) {
	nd := &h.nodes[id]
	if !nd.proj.ok() {
		return // root or skeleton-less node
	}
	t := h.Tree
	s, _ := nd.proj.dims()
	out := st.getMat(s, st.r)
	if t.IsLeaf(id) {
		tn := &t.Nodes[id]
		wview := st.Wt.View(tn.Lo, 0, tn.Size(), st.r)
		nd.proj.gemm(false, wview, 0, out)
		h.addEvalFlops(2 * float64(s) * float64(tn.Size()) * float64(st.r))
	} else {
		wl := st.skelW[t.Left(id)]
		wr := st.skelW[t.Right(id)]
		stacked := st.stackRows(wl, wr)
		nd.proj.gemm(false, stacked, 0, out)
		h.addEvalFlops(2 * float64(s) * float64(stacked.Rows) * float64(st.r))
		if st.pool != nil {
			st.pool.PutMatrix(stacked) // transient: safe to recycle immediately
		}
	}
	st.skelW[id] = out
}

// s2s applies the skeleton basis: ũβ = Σ_{α ∈ Far(β)} K_β̃α̃ w̃α.
func (h *Hierarchical) s2s(st *evalState, id int) {
	nd := &h.nodes[id]
	if len(nd.far) == 0 || len(nd.skel) == 0 {
		return
	}
	acc := st.getMat(len(nd.skel), st.r)
	for k, alpha := range nd.far {
		wa := st.skelW[alpha]
		if wa == nil || wa.Rows == 0 {
			continue
		}
		h.applySlot(st, farList, id, k, alpha, wa, acc)
	}
	st.skelU[id] = acc
}

// applySlot accumulates C += K(id, α)·B for list slot k of node id: the
// cached block, transposed when the partner owns it, or else K(id, α)
// gathered fresh, as an uncached operator always does.
func (h *Hierarchical) applySlot(st *evalState, kind listKind, id, k, alpha int, B, C *linalg.Matrix) {
	blk, trans := h.slotBlock(kind, id, k)
	if !blk.ok() {
		blk, trans = block{m: h.gather(kind, id, alpha)}, false
	}
	blk.gemm(trans, B, 1, C)
	rows, cols := blk.dims()
	h.addEvalFlops(2 * float64(rows) * float64(cols) * float64(st.r))
}

// s2n pushes skeleton potentials down: ũβ += slice of parent's Pᵀũ, then
// either hands its own Pᵀũβ to its children (interior) or accumulates
// P_β̃βᵀ ũβ into the output rows (leaf).
func (h *Hierarchical) s2n(st *evalState, id int) {
	t := h.Tree
	nd := &h.nodes[id]
	// Fold in the parent's contribution.
	if p := t.Parent(id); p >= 0 && st.down[p] != nil {
		ls := len(h.nodes[t.Left(p)].skel)
		var part *linalg.Matrix
		if id == t.Left(p) {
			part = st.down[p].View(0, 0, ls, st.r)
		} else {
			part = st.down[p].View(ls, 0, st.down[p].Rows-ls, st.r)
		}
		if part.Rows > 0 {
			if st.skelU[id] == nil {
				st.skelU[id] = st.getMat(part.Rows, st.r)
			}
			st.skelU[id].AddScaled(1, part)
		}
	}
	u := st.skelU[id]
	if u == nil || u.Rows == 0 || !nd.proj.ok() {
		return
	}
	s, c := nd.proj.dims()
	if t.IsLeaf(id) {
		tn := &t.Nodes[id]
		uview := st.Ufar.View(tn.Lo, 0, tn.Size(), st.r)
		nd.proj.gemm(true, u, 1, uview)
		h.addEvalFlops(2 * float64(s) * float64(tn.Size()) * float64(st.r))
	} else {
		down := st.getMat(c, st.r)
		nd.proj.gemm(true, u, 0, down)
		st.down[id] = down
		h.addEvalFlops(2 * float64(s) * float64(c) * float64(st.r))
	}
}

// l2l accumulates the direct (sparse-correction) interactions:
// u_β += Σ_{α ∈ Near(β)} K_βα w_α.
func (h *Hierarchical) l2l(st *evalState, beta int) {
	t := h.Tree
	nd := &h.nodes[beta]
	tb := &t.Nodes[beta]
	uview := st.Unear.View(tb.Lo, 0, tb.Size(), st.r)
	for k, alpha := range nd.near {
		ta := &t.Nodes[alpha]
		wview := st.Wt.View(ta.Lo, 0, ta.Size(), st.r)
		h.applySlot(st, nearList, beta, k, alpha, wview, uview)
	}
}

// stackRows returns [a; b] (either may be nil/empty) as a pooled scratch
// matrix; the caller returns it to the pool when done.
func (st *evalState) stackRows(a, b *linalg.Matrix) *linalg.Matrix {
	ra, rb := 0, 0
	if a != nil {
		ra = a.Rows
	}
	if b != nil {
		rb = b.Rows
	}
	out := st.getMat(ra+rb, st.r)
	if ra > 0 {
		out.View(0, 0, ra, st.r).CopyFrom(a)
	}
	if rb > 0 {
		out.View(ra, 0, rb, st.r).CopyFrom(b)
	}
	return out
}

// evalLevelByLevel runs Algorithm 2.7 with a barrier per tree level:
// N2S bottom-up, S2S as one dynamic batch, S2N top-down, then L2L as one
// batch (the baseline traversal of Figure 4).
// sp is the enclosing "matvec" span (nil when telemetry is off); each of the
// four passes gets a child span. Splitting the RunLevels call per pass keeps
// the same semantics — RunLevels already barriers after every batch.
func (h *Hierarchical) evalLevelByLevel(ctx context.Context, st *evalState, sp *telemetry.Span) error {
	t := h.Tree
	p := h.Cfg.workerCount()
	levels := t.LevelNodes()
	var n2sBatches [][]func()
	for l := t.Depth; l >= 0; l-- {
		batch := make([]func(), 0, len(levels[l]))
		for _, id := range levels[l] {
			id := id
			batch = append(batch, func() { h.n2s(st, id) })
		}
		n2sBatches = append(n2sBatches, batch)
	}
	ps := sp.StartSpan("N2S")
	err := sched.RunLevelsCtx(ctx, n2sBatches, p)
	ps.End()
	if err != nil {
		return err
	}
	s2sBatch := make([]func(), 0, len(t.Nodes))
	for id := range t.Nodes {
		id := id
		s2sBatch = append(s2sBatch, func() { h.s2s(st, id) })
	}
	ps = sp.StartSpan("S2S")
	err = sched.RunLevelsCtx(ctx, [][]func(){s2sBatch}, p)
	ps.End()
	if err != nil {
		return err
	}
	var s2nBatches [][]func()
	for l := 0; l <= t.Depth; l++ {
		batch := make([]func(), 0, len(levels[l]))
		for _, id := range levels[l] {
			id := id
			batch = append(batch, func() { h.s2n(st, id) })
		}
		s2nBatches = append(s2nBatches, batch)
	}
	ps = sp.StartSpan("S2N")
	err = sched.RunLevelsCtx(ctx, s2nBatches, p)
	ps.End()
	if err != nil {
		return err
	}
	l2lBatch := make([]func(), 0, t.NumLeaves())
	for _, beta := range t.Leaves() {
		beta := beta
		l2lBatch = append(l2lBatch, func() { h.l2l(st, beta) })
	}
	ps = sp.StartSpan("L2L")
	err = sched.RunLevelsCtx(ctx, [][]func(){l2lBatch}, p)
	ps.End()
	return err
}

// evalTasked builds the Figure 3 dependency DAG by symbolic traversal and
// executes it out of order (HEFT for Dynamic, FIFO for TaskDepend). The RAW
// edges are exactly those of §2.3:
//
//	N2S(α)  ← N2S(l), N2S(r)            (w̃ of the children)
//	S2S(β)  ← N2S(α) for α ∈ Far(β)     (reads w̃α — unknown at compile time)
//	S2N(β)  ← S2S(β), S2N(parent(β))    (reads ũβ and the parent hand-down)
//	L2L(β)  independent                  (separate output accumulator)
func (h *Hierarchical) evalTasked(ctx context.Context, st *evalState, sp *telemetry.Span) error {
	g := h.buildEvalGraph(st)
	if err := g.Err(); err != nil {
		return err
	}
	policy := sched.HEFT
	if h.Cfg.Exec == TaskDepend {
		policy = sched.FIFO
	}
	eng := h.Cfg.engine(policy)
	rec := h.Cfg.Telemetry
	if h.Cfg.CaptureTrace || rec != nil {
		eng.EnableTrace()
	}
	if c := h.Cfg.Chaos; c != nil && c.Config().TaskFail > 0 {
		eng.SetFaultInjector(c.TaskFail)
	}
	if h.Cfg.StallTimeout > 0 {
		eng.SetStallTimeout(h.Cfg.StallTimeout)
	}
	runStart := rec.Since()
	err := eng.RunCtx(ctx, g)
	if n := eng.Retries(); n > 0 && rec != nil {
		rec.Counter("sched.task_retries").Add(n)
	}
	if h.Cfg.CaptureTrace || rec != nil {
		h.LastTrace = eng.Trace()
	}
	exportEngineTrace(rec, sp, "sched.matvec", eng, runStart)
	return err
}

// buildEvalGraph performs the symbolic traversal that discovers the RAW
// dependencies of Algorithm 2.7 and returns the task DAG. Task costs are
// predicted wall-clock, not raw flops: sched.BatchedCost discounts fat-RHS
// blocks by the GEMM efficiency they actually reach, so HEFT ranks a
// coalesced r-wide task correctly against r single-vector ones.
func (h *Hierarchical) buildEvalGraph(st *evalState) *sched.Graph {
	t := h.Tree
	g := sched.NewGraph()
	r := float64(st.r)
	m := float64(h.Cfg.LeafSize)
	cost := func(flops float64) float64 { return sched.BatchedCost(flops, st.r) }
	n2sTasks := make([]*sched.Task, len(t.Nodes))
	s2nTasks := make([]*sched.Task, len(t.Nodes))
	for id := len(t.Nodes) - 1; id >= 0; id-- {
		id := id
		s := float64(len(h.nodes[id].skel))
		n2sTasks[id] = g.Add(fmt.Sprintf("N2S(%d)", id), cost(2*m*s*r), func(*sched.Ctx) { h.n2s(st, id) })
		if !t.IsLeaf(id) {
			g.AddDep(n2sTasks[t.Left(id)], n2sTasks[id])
			g.AddDep(n2sTasks[t.Right(id)], n2sTasks[id])
		}
	}
	s2sTasks := make([]*sched.Task, len(t.Nodes))
	for id := range t.Nodes {
		id := id
		nd := &h.nodes[id]
		s := float64(len(nd.skel))
		s2sTasks[id] = g.Add(fmt.Sprintf("S2S(%d)", id), cost(2*s*s*r*float64(len(nd.far)+1)), func(*sched.Ctx) { h.s2s(st, id) })
		for _, alpha := range nd.far {
			g.AddDep(n2sTasks[alpha], s2sTasks[id])
		}
	}
	for id := 0; id < len(t.Nodes); id++ {
		id := id
		s := float64(len(h.nodes[id].skel))
		s2nTasks[id] = g.Add(fmt.Sprintf("S2N(%d)", id), cost(2*m*s*r), func(*sched.Ctx) { h.s2n(st, id) })
		g.AddDep(s2sTasks[id], s2nTasks[id])
		if p := t.Parent(id); p >= 0 {
			g.AddDep(s2nTasks[p], s2nTasks[id])
		}
	}
	// L2L tasks are the GEMM-heavy ones; when the pool has accelerator
	// workers, pin them there (§2.3: "we enforce our scheduler to schedule
	// L2L tasks to the GPU").
	var accel []int
	for wIdx, spec := range h.Cfg.WorkerSpecs {
		if spec.Accelerator {
			accel = append(accel, wIdx)
		}
	}
	for li, beta := range t.Leaves() {
		beta := beta
		nd := &h.nodes[beta]
		task := g.Add(fmt.Sprintf("L2L(%d)", beta), cost(2*m*m*r*float64(len(nd.near))), func(*sched.Ctx) { h.l2l(st, beta) })
		if len(accel) > 0 {
			task.Affinity = accel[li%len(accel)]
		}
	}
	return g
}

// EvalGraphDOT writes the evaluation-phase dependency DAG (Figure 3 of the
// paper, generated from the actual symbolic traversal) in Graphviz DOT
// format, without executing anything.
func (h *Hierarchical) EvalGraphDOT(w io.Writer) error {
	st := &evalState{
		r:     1,
		Wt:    linalg.NewMatrix(h.K.Dim(), 1),
		Unear: linalg.NewMatrix(h.K.Dim(), 1),
		Ufar:  linalg.NewMatrix(h.K.Dim(), 1),
		skelW: make([]*linalg.Matrix, len(h.Tree.Nodes)),
		skelU: make([]*linalg.Matrix, len(h.Tree.Nodes)),
		down:  make([]*linalg.Matrix, len(h.Tree.Nodes)),
	}
	return h.buildEvalGraph(st).WriteDOT(w)
}
