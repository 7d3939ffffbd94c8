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
	// flops is this evaluation's flop count; the passes add to it from
	// every worker.
	flops atomic.Int64
}

// addFlops adds f to the evaluation's flop count.
func (st *evalState) addFlops(f float64) { st.flops.Add(int64(f)) }

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
// the tree interpreter when p is nil. Both engines share what surrounds
// them here: the panic backstop, the span with its trace ID, noteEval and
// the op.* counters. op names the span and the counters ("matvec" or
// "matmat"). A replay with telemetry off allocates nothing beyond what
// Execute draws from the plan's state cache.
func (h *Hierarchical) evalInto(ctx context.Context, p *plan.Plan, W, U *linalg.Matrix, op string) (err error) {
	rec := h.Cfg.Telemetry
	tid, _ := telemetry.TraceIDFrom(ctx)
	// Backstop: no panic escapes the public entry points (kernel bugs and
	// injected replay faults alike become typed errors). The crash is
	// funneled to the flight recorder before the typed error returns.
	defer func() {
		if r := recover(); r != nil {
			perr := &resilience.PanicError{Label: op, Value: r, Stack: debug.Stack()}
			rec.ReportCrash(op, tid, perr)
			err = perr
		}
	}()
	if p == nil {
		if err := h.requireEvalOracle(op); err != nil {
			return err
		}
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
	var flops float64
	if p != nil {
		if root != nil {
			root.SetAttr("plan.digest", p.DigestHex()[:12])
		}
		opts := plan.ExecOptions{
			Workers:   h.Cfg.levelWorkers(),
			Pool:      h.Cfg.Workspace,
			Telemetry: rec,
		}
		if c := h.Cfg.Chaos; c != nil && c.Config().TaskFail > 0 {
			opts.Inject = c.TaskFail
		}
		if err = p.Execute(ctx, W, U, opts); err == nil {
			flops = p.FlopsPerCol() * float64(W.Cols)
		}
	} else {
		flops, err = h.interpret(ctx, W, U, root)
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

// interpret is the tree interpreter behind evaluations of an operator
// without a compiled plan: one symbolic traversal and one workspace scope
// serve the whole n×r block, so the per-pass kernels are r-wide GEMMs, and
// the result lands in the caller's U. sp is the enclosing span (nil when
// telemetry is off); the executors hang the four passes off it. It returns
// the evaluation's flop count.
func (h *Hierarchical) interpret(ctx context.Context, W, U *linalg.Matrix, sp *telemetry.Span) (float64, error) {
	st := h.newEvalState(W.Cols, h.Cfg.Workspace)
	// Release everything back to the pool on every exit path; U belongs to
	// the caller and is never pooled.
	defer st.release()
	W.RowsGatherInto(h.Tree.Perm, st.Wt)
	var err error
	if h.Cfg.tasked() {
		err = h.runTasked(ctx, h.buildEvalGraph(st), sp, "sched.matvec")
	} else {
		err = h.evalLevelByLevel(ctx, st, sp)
	}
	if err != nil {
		return 0, err
	}
	st.Ufar.AddScaled(1, st.Unear)
	st.Ufar.RowsGatherInto(h.Tree.IPerm, U)
	return float64(st.flops.Load()), nil
}

// newEvalState allocates the buffers of an r-wide evaluation, from pool
// when it is non-nil.
func (h *Hierarchical) newEvalState(r int, pool *workspace.Pool) *evalState {
	n, nodes := h.K.Dim(), len(h.Tree.Nodes)
	return &evalState{
		r:     r,
		Wt:    pool.GetMatrix(n, r),
		Unear: pool.GetMatrix(n, r),
		Ufar:  pool.GetMatrix(n, r),
		skelW: make([]*linalg.Matrix, nodes),
		skelU: make([]*linalg.Matrix, nodes),
		down:  make([]*linalg.Matrix, nodes),
		pool:  pool,
	}
}

// n2s computes the skeleton weights w̃α = P_α̃α w_α (leaf) or
// P_α̃[l̃r̃] [w̃l; w̃r] (interior) with the stored form P = [I T]Π: the
// skeleton rows of the input seed w̃, and T times the redundant rows is
// added to them.
func (h *Hierarchical) n2s(st *evalState, id int) {
	nd := &h.nodes[id]
	s := len(nd.skel)
	if s == 0 {
		return // root or skeleton-less node
	}
	t := h.Tree
	var in *linalg.Matrix
	if t.IsLeaf(id) {
		tn := &t.Nodes[id]
		in = st.Wt.View(tn.Lo, 0, tn.Size(), st.r)
	} else {
		in = st.stackRows(st.skelW[t.Left(id)], st.skelW[t.Right(id)])
	}
	out := st.getMat(s, st.r)
	in.RowsGatherInto(nd.pos[:s], out)
	if nd.coef.ok() {
		red := st.getMat(len(nd.pos)-s, st.r)
		in.RowsGatherInto(nd.pos[s:], red)
		nd.coef.gemm(false, red, 1, out)
		st.addFlops(2 * float64(s) * float64(red.Rows) * float64(st.r))
		st.pool.PutMatrix(red) // transient: safe to recycle immediately
	}
	if !t.IsLeaf(id) {
		st.pool.PutMatrix(in)
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
	st.addFlops(2 * float64(rows) * float64(cols) * float64(st.r))
}

// s2n pushes skeleton potentials down: ũβ += slice of parent's Pᵀũ, then
// either hands its own Pᵀũβ to its children (interior) or writes
// P_β̃βᵀ ũβ into the output rows (leaf). With P = [I T]Π, Pᵀũ is ũ at
// the skeleton rows and Tᵀũ at the redundant ones.
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
	s := len(nd.skel)
	if u == nil || u.Rows == 0 || s == 0 {
		return
	}
	var out *linalg.Matrix
	if t.IsLeaf(id) {
		tn := &t.Nodes[id]
		out = st.Ufar.View(tn.Lo, 0, tn.Size(), st.r)
	} else {
		out = st.getMat(len(nd.pos), st.r)
		st.down[id] = out
	}
	out.RowsScatter(nd.pos[:s], u)
	if nd.coef.ok() {
		red := st.getMat(len(nd.pos)-s, st.r)
		nd.coef.gemm(true, u, 0, red)
		out.RowsScatter(nd.pos[s:], red)
		st.addFlops(2 * float64(s) * float64(red.Rows) * float64(st.r))
		st.pool.PutMatrix(red)
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
// batch (the baseline traversal of Figure 4). Under Sequential its one
// worker is the calling goroutine, which runs every batch in order.
// sp is the enclosing "matvec" span (nil when telemetry is off); each of the
// four passes gets a child span. Splitting the RunLevelsCtx call per pass keeps
// the same semantics — RunLevelsCtx already barriers after every batch.
func (h *Hierarchical) evalLevelByLevel(ctx context.Context, st *evalState, sp *telemetry.Span) error {
	t := h.Tree
	levels := t.LevelNodes()
	batch := func(ids []int, kernel func(*evalState, int)) []func() {
		b := make([]func(), len(ids))
		for k, id := range ids {
			b[k] = func() { kernel(st, id) }
		}
		return b
	}
	all := make([]int, len(t.Nodes))
	for id := range all {
		all[id] = id
	}
	var up, down [][]func()
	for l := t.Depth; l >= 0; l-- {
		up = append(up, batch(levels[l], h.n2s))
		down = append(down, batch(levels[t.Depth-l], h.s2n))
	}
	for _, pass := range []struct {
		name    string
		batches [][]func()
	}{
		{"N2S", up},
		{"S2S", [][]func(){batch(all, h.s2s)}},
		{"S2N", down},
		{"L2L", [][]func(){batch(t.Leaves(), h.l2l)}},
	} {
		ps := sp.StartSpan(pass.name)
		err := sched.RunLevelsCtx(ctx, pass.batches, h.Cfg.levelWorkers())
		ps.End()
		if err != nil {
			return err
		}
	}
	return nil
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
		s := float64(len(h.nodes[id].skel))
		n2sTasks[id] = g.Add(fmt.Sprintf("N2S(%d)", id), cost(2*m*s*r), func() { h.n2s(st, id) })
		if !t.IsLeaf(id) {
			g.AddDep(n2sTasks[t.Left(id)], n2sTasks[id])
			g.AddDep(n2sTasks[t.Right(id)], n2sTasks[id])
		}
	}
	s2sTasks := make([]*sched.Task, len(t.Nodes))
	for id := range t.Nodes {
		nd := &h.nodes[id]
		s := float64(len(nd.skel))
		s2sTasks[id] = g.Add(fmt.Sprintf("S2S(%d)", id), cost(2*s*s*r*float64(len(nd.far)+1)), func() { h.s2s(st, id) })
		for _, alpha := range nd.far {
			g.AddDep(n2sTasks[alpha], s2sTasks[id])
		}
	}
	for id := 0; id < len(t.Nodes); id++ {
		s := float64(len(h.nodes[id].skel))
		s2nTasks[id] = g.Add(fmt.Sprintf("S2N(%d)", id), cost(2*m*s*r), func() { h.s2n(st, id) })
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
		nd := &h.nodes[beta]
		task := g.Add(fmt.Sprintf("L2L(%d)", beta), cost(2*m*m*r*float64(len(nd.near))), func() { h.l2l(st, beta) })
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
	return h.buildEvalGraph(h.newEvalState(1, nil)).WriteDOT(w)
}
