package core

import (
	"context"
	"fmt"
	"time"

	"gofmm/internal/plan"
	"gofmm/internal/resilience"
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
// available as the reference path through InterpMatvecCtx/InterpMatmatCtx.
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
	rec := h.Cfg.Telemetry
	sp := rec.StartSpan("plan.compile")
	defer sp.End()
	t0 := time.Now()
	p, err := h.lowerPlan()
	if err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	if rec != nil { // the digest is hashed only for a trace that records it
		sp.SetAttr("plan.digest", p.DigestHex())
		sp.SetAttr("plan.ops", fmt.Sprintf("%d", p.NumOps()))
	}
	if d := sp.End(); d > 0 {
		h.Stats.PlanTime = d.Seconds()
	} else {
		h.Stats.PlanTime = time.Since(t0).Seconds()
	}
	if rec != nil {
		rec.Counter("plan.compiles").Add(1)
		rec.Gauge("plan.ops").Set(float64(p.NumOps()))
		rec.Gauge("plan.stages").Set(float64(p.NumStages()))
		rec.Gauge("plan.arena_rows").Set(float64(p.ArenaRows()))
	}
	h.evalPlan.Store(p)
	return p, nil
}

// Plan returns the installed compiled plan, or nil when evaluation still
// runs through the tree interpreter.
func (h *Hierarchical) Plan() *plan.Plan { return h.evalPlan.Load() }

// lowerPlan performs the symbolic traversal once and emits the flat
// schedule. The emitted op sequence reproduces the interpreter's kernel
// calls on the same operands — each symmetric pair's one stored block,
// applied forward for its owner and transposed for its partner by one
// pair record — so compiled results agree with the reference path to
// rounding (and replay-to-replay is bit-identical; see internal/plan).
//
// Arena layout: Wt, Unear, Ufar (n rows each, tree order), then per
// interior node one stacked region [w̃l; w̃r] whose halves ARE the
// children's skeleton-weight buffers (no copy op needed), then per node
// with a T block one region for its redundant rows (T's operand in N2S,
// Tᵀũ in S2N), then skeleton potentials ũ and hand-down buffers Pᵀũ for
// exactly the nodes the reachability pass proves live, then one region
// per mirrored pair (see lowerPairs). Every region has a unique writing
// task per stage, and every region is written before it is read, so
// replays never zero the arena.
//
// A basis P = [I T]Π lowers to row records around one GEMM on T. N2S
// gathers the input's skeleton rows into w̃ and its redundant rows into
// the node's region, then adds T times that region to w̃. S2N scatters ũ
// to the skeleton rows of its output and, through the region, Tᵀũ to the
// redundant rows.
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
		hasDown[id] = !t.IsLeaf(id) && hasU[id]
	}

	// Region allocation. Sibling skeleton-weight buffers are laid out as
	// the two halves of the parent's stacked N2S input, which removes the
	// interpreter's stacking copies entirely.
	wt := b.Region(n)
	unear := b.Region(n)
	ufar := b.Region(n)
	skelW := make([]plan.Ref, nn)   // w̃ per node (zero Rows = absent)
	stacked := make([]plan.Ref, nn) // [w̃l; w̃r] per interior node with a basis
	red := make([]plan.Ref, nn)     // redundant rows per node with a T block
	skelU := make([]plan.Ref, nn)   // ũ per node with hasU
	down := make([]plan.Ref, nn)    // Pᵀũ per node with hasDown
	for id := 0; id < nn; id++ {
		if t.IsLeaf(id) {
			continue
		}
		l, r := t.Left(id), t.Right(id)
		ra, rb := len(h.nodes[l].skel), len(h.nodes[r].skel)
		if len(h.nodes[id].skel) > 0 {
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
		nd := &h.nodes[id]
		if nd.coef.ok() {
			red[id] = b.Region(len(nd.pos) - len(nd.skel))
		}
		if hasU[id] {
			skelU[id] = b.Region(len(nd.skel))
		}
		if hasDown[id] {
			down[id] = b.Region(len(nd.pos))
		}
	}
	// Sub-views of the three tree-order blocks (stride n).
	rows := func(region plan.Ref, lo, size int) plan.Ref {
		return plan.Ref{Base: region.Base, Sub: lo, Rows: size, Span: n}
	}
	leafRows := func(region plan.Ref) func(int) plan.Ref {
		return func(id int) plan.Ref {
			tn := &t.Nodes[id]
			return rows(region, tn.Lo, tn.Size())
		}
	}

	// Stage 0: permute the external input into tree order.
	b.BeginStage("gather", false)
	b.BeginTask()
	b.Gather(plan.External, t.Perm, wt)

	// N2S bottom-up, one barrier per level; a node's records write its w̃
	// half of the parent's stacked region: the skeleton rows of its input,
	// then T times the redundant rows added with beta = 1.
	levels := t.LevelNodes()
	for l := t.Depth; l >= 0; l-- {
		opened := false
		for _, id := range levels[l] {
			nd := &h.nodes[id]
			s := len(nd.skel)
			if s == 0 {
				continue
			}
			if !opened {
				b.BeginStage(fmt.Sprintf("n2s.L%02d", l), true)
				opened = true
			}
			b.BeginTask()
			in := stacked[id]
			if t.IsLeaf(id) {
				tn := &t.Nodes[id]
				in = rows(wt, tn.Lo, tn.Size())
			}
			b.Gather(in, nd.pos[:s], skelW[id])
			if nd.coef.ok() {
				b.Gather(in, nd.pos[s:], red[id])
				nd.coef.emit(b, false, red[id], skelW[id], 1)
			}
		}
	}

	// S2S over every node's far list, where a node without a skeleton has
	// no ũ to write and a source without w̃ is the interpreter's nil/empty
	// skip, decided statically; and L2L over every leaf's near list into
	// its Unear rows. L2L reads only the input and writes only the near
	// field, so its tasks share S2S's two stages.
	all := make([]int, nn)
	for id := range all {
		all[id] = id
	}
	h.lowerPairs(b, []*pairPass{
		{kind: farList, nodes: all,
			w:   func(id int) plan.Ref { return skelW[id] },
			out: func(id int) (plan.Ref, bool) { return skelU[id], hasS2S[id] }},
		{kind: nearList, nodes: t.Leaves(), w: leafRows(wt),
			out: func(id int) (plan.Ref, bool) { return leafRows(unear)(id), true }},
	})

	// S2N top-down, one barrier per level: fold the parent's hand-down
	// slice into ũ, then write Pᵀũ, ũ to the skeleton rows and Tᵀũ to the
	// redundant ones, either into the hand-down buffer (interior) or into
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
			hasOut := hasU[id]
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
				out := down[id]
				if t.IsLeaf(id) {
					tn := &t.Nodes[id]
					out = rows(ufar, tn.Lo, tn.Size())
				}
				b.Scatter(skelU[id], nd.pos[:s], out)
				if nd.coef.ok() {
					nd.coef.emit(b, true, skelU[id], red[id], 0)
					b.Scatter(red[id], nd.pos[s:], out)
				}
			}
			if zeroUfar {
				tn := &t.Nodes[id]
				b.Zero(rows(ufar, tn.Lo, tn.Size()))
			}
		}
	}

	// Finish: fold the near field into the far field and permute out.
	b.BeginStage("finish", false)
	b.BeginTask()
	b.Add(unear, ufar)
	b.Gather(ufar, t.IPerm, plan.External)

	return b.Build()
}

// pairPass is one pass over the near or far lists (L2L or S2S): its
// nodes, node id's input w(id) (zero Rows = absent), and its output
// out(id) with whether the node writes one.
type pairPass struct {
	kind  listKind
	nodes []int
	w     func(id int) plan.Ref
	out   func(id int) (plan.Ref, bool)
}

// lowerPairs lowers passes over the near and far lists as two parallel
// stages that all the passes share:
//
//   - Stage one has one task per node. It applies each block the node
//     owns, in list order: forward, out(owner) += K·w(partner), and, when
//     the partner lists the owner back, transposed into the pair's own
//     region, t = Kᵀ·w(owner). A slot with both halves is one pair record
//     (OpGemmPair), whose replay at widths 1 and 2 reads the block once
//     for both; a slot with one half (a diagonal block, a block its
//     partner does not list back, or a half whose input or output is
//     absent) is one OpGemm. So a replay streams each stored block once.
//     The first record into out(owner) overwrites it.
//   - Stage two has one task per node. It adds the node's incoming pair
//     regions to out(node) in list order, copying the first one when stage
//     one wrote nothing, and clears an output that nothing reaches.
//
// Each task writes only its node's output and the pair regions it owns,
// and the passes write disjoint outputs, so both stages are
// output-disjoint, and every region is written before it is read. Blocks
// come from the owner's cache, or are gathered here for the plan alone
// when the compression did not cache them.
func (h *Hierarchical) lowerPairs(b *plan.Builder, passes []*pairPass) {
	// pair[i][id][k] is the region that receives node id's slot-k block of
	// pass i transposed, for the partner to add; zero Rows where no
	// partner applies it (the partner writes no output, or id's input is
	// absent). wrote[i][id] records that out(id) holds a value.
	pair := make([][][]plan.Ref, len(passes))
	wrote := make([][]bool, len(passes))
	for i, ps := range passes {
		pair[i] = make([][]plan.Ref, len(h.nodes))
		wrote[i] = make([]bool, len(h.nodes))
		for _, alpha := range ps.nodes {
			dst, ok := ps.out(alpha)
			if !ok {
				continue
			}
			lst, _ := h.list(ps.kind, alpha)
			for j := range lst {
				owner, slot, trans := h.slotOwner(ps.kind, alpha, j)
				if !trans || ps.w(owner).Rows == 0 {
					continue
				}
				if pair[i][owner] == nil {
					own, _ := h.list(ps.kind, owner)
					pair[i][owner] = make([]plan.Ref, len(own))
				}
				pair[i][owner][slot] = b.Region(dst.Rows)
			}
		}
	}
	mirror := func(i, id, k int) plan.Ref {
		if pair[i][id] == nil {
			return plan.Ref{}
		}
		return pair[i][id][k]
	}

	b.BeginStage("pairs", true)
	for i, ps := range passes {
		for _, id := range ps.nodes {
			dst, active := ps.out(id)
			lst, cache := h.list(ps.kind, id)
			b.BeginTask()
			for k, alpha := range lst {
				if _, _, trans := h.slotOwner(ps.kind, id, k); trans {
					continue
				}
				fwd := active && ps.w(alpha).Rows > 0
				t := mirror(i, id, k)
				if !fwd && t.Rows == 0 {
					continue
				}
				var blk block
				if *cache != nil {
					blk = (*cache)[k]
				}
				if !blk.ok() {
					blk = block{m: h.gather(ps.kind, id, alpha)}
				}
				var beta float64
				if wrote[i][id] {
					beta = 1
				}
				switch {
				case fwd && t.Rows > 0:
					blk.emitPair(b, ps.w(alpha), dst, beta, ps.w(id), t)
				case fwd:
					blk.emit(b, false, ps.w(alpha), dst, beta)
				default:
					blk.emit(b, true, ps.w(id), t, 0)
				}
				wrote[i][id] = wrote[i][id] || fwd
			}
		}
	}

	b.BeginStage("pairs.add", true)
	for i, ps := range passes {
		for _, id := range ps.nodes {
			dst, active := ps.out(id)
			if !active {
				continue
			}
			lst, _ := h.list(ps.kind, id)
			b.BeginTask()
			for j := range lst {
				owner, slot, trans := h.slotOwner(ps.kind, id, j)
				t := mirror(i, owner, slot)
				if !trans || t.Rows == 0 {
					continue
				}
				if wrote[i][id] {
					b.Add(t, dst)
				} else {
					b.Copy(t, dst)
					wrote[i][id] = true
				}
			}
			if !wrote[i][id] {
				b.Zero(dst) // the output exists but every source was skipped
			}
		}
	}
}
