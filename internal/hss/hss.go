// Package hss implements the STRUMPACK-like baseline of Table 3: a
// hierarchically semi-separable (HSS) approximation built from a global
// random sketch (Martinsson's randomized HSS compression, the algorithm
// STRUMPACK's black-box dense path uses). Like STRUMPACK's dense mode it
// keeps the lexicographic ordering and pays an honest O(N²·r) for the
// sketch Y = K·Ω when no fast multiply is available — exactly the cost
// asymmetry the paper's Table 3 demonstrates against GOFMM's O(N log N)
// sampling-based compression. The subsequent matvec is O(N·r).
package hss

import (
	"math/rand"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/telemetry"
	"gofmm/internal/tree"
)

// Oracle is the matrix access HSS compression needs: entries (for selected
// blocks) and nothing else; the sketch is computed from entries too.
type Oracle interface {
	Dim() int
	At(i, j int) float64
}

// oversample is the number of sketch columns beyond the target rank.
const oversample = 10

// Config tunes the compression.
type Config struct {
	LeafSize int
	// Rank is the target HSS rank of the sketch; Ω has oversample more
	// columns for robustness.
	Rank int
	// Tol is the interpolative-decomposition truncation tolerance.
	Tol  float64
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.LeafSize <= 0 {
		c.LeafSize = 256
	}
	if c.Rank <= 0 {
		c.Rank = 128
	}
	if c.Tol <= 0 {
		c.Tol = 1e-8
	}
	return c
}

// node holds the per-node HSS data.
type node struct {
	skel []int          // global skeleton row indices
	E    *linalg.Matrix // row-interpolation basis (rows×s, identity on skel)
	B    *linalg.Matrix // coupling K(skel_l, skel_r) at interior nodes
	D    *linalg.Matrix // dense diagonal block at leaves
}

// HSS is the compressed representation.
type HSS struct {
	Cfg   Config
	Tree  *tree.Tree
	nodes []node
	n     int
	// Perm/IPerm map tree positions to original indices when the tree is a
	// permuted (metric) tree; nil means the identity (lexicographic) order.
	Perm, IPerm []int

	CompressTime, SketchTime, EvalTime float64
	MaxRankSeen                        int

	// Telemetry records factor/solve phase spans; nil disables recording.
	// FromGOFMM inherits it from the source operator's Config.Telemetry.
	Telemetry *telemetry.Recorder
}

// skelSize returns the skeleton size of node id (0 for the root).
func (h *HSS) skelSize(id int) int {
	if h.nodes[id].E == nil {
		return len(h.nodes[id].skel)
	}
	return h.nodes[id].E.Cols
}

// Compress builds the HSS form of K.
func Compress(K Oracle, cfg Config) *HSS {
	cfg = cfg.withDefaults()
	n := K.Dim()
	h := &HSS{Cfg: cfg, n: n}
	start := time.Now()
	h.Tree = tree.Build(n, cfg.LeafSize, nil) // lexicographic order
	h.nodes = make([]node, len(h.Tree.Nodes))

	// Global sketch Y = K·Ω — the O(N²·r) step.
	t0 := time.Now()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := cfg.Rank + oversample
	Omega := linalg.GaussianMatrix(rng, n, p)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	Y := linalg.NewMatrix(n, p)
	const blk = 512
	for lo := 0; lo < n; lo += blk {
		hi := min(lo+blk, n)
		block := core.NewGathered(K, all[lo:hi], all)
		yv := Y.View(lo, 0, hi-lo, p)
		linalg.Gemm(false, false, 1, block, Omega, 0, yv)
	}
	h.SketchTime = time.Since(t0).Seconds()

	// Bottom-up compression. redOmega[id] holds the *projected* test matrix
	// E_τᵀ·Ω_τ (recursively E_αᵀ·[redΩ_l; redΩ_r]) — the nested column-basis
	// image of Ω, which is what the sibling-correction
	// K(skel_l, I_r)·Ω_r ≈ B_{lr}·(E_rᵀ Ω_r) requires. redS[id] holds the
	// reduced sample rows Z[sel,:].
	redOmega := make([]*linalg.Matrix, len(h.Tree.Nodes))
	redS := make([]*linalg.Matrix, len(h.Tree.Nodes))
	h.Tree.PostOrder(func(nd *tree.Node) {
		id := nd.ID
		if id == 0 {
			if h.Tree.IsLeaf(0) {
				// Degenerate single-leaf tree: store K densely.
				h.nodes[0].D = core.NewGathered(K, all, all)
			} else {
				// Root: only the coupling between its children is needed.
				l, r := h.Tree.Left(0), h.Tree.Right(0)
				h.nodes[0].B = core.NewGathered(K, h.nodes[l].skel, h.nodes[r].skel)
			}
			return
		}
		var Z *linalg.Matrix
		var rows []int // global indices corresponding to Z's rows
		var omegaIn *linalg.Matrix
		if h.Tree.IsLeaf(id) {
			rows = append([]int(nil), h.Tree.Indices(id)...)
			Z = Y.RowsGather(rows)
			D := core.NewGathered(K, rows, rows)
			omegaIn = Omega.RowsGather(rows)
			linalg.Gemm(false, false, -1, D, omegaIn, 1, Z)
			h.nodes[id].D = D
		} else {
			l, r := h.Tree.Left(id), h.Tree.Right(id)
			B := core.NewGathered(K, h.nodes[l].skel, h.nodes[r].skel)
			h.nodes[id].B = B
			Sl := redS[l].Clone()
			linalg.Gemm(false, false, -1, B, redOmega[r], 1, Sl)
			Sr := redS[r].Clone()
			linalg.Gemm(true, false, -1, B, redOmega[l], 1, Sr)
			rows = append(append([]int(nil), h.nodes[l].skel...), h.nodes[r].skel...)
			Z = linalg.NewMatrix(len(rows), p)
			Z.View(0, 0, Sl.Rows, p).CopyFrom(Sl)
			Z.View(Sl.Rows, 0, Sr.Rows, p).CopyFrom(Sr)
			omegaIn = linalg.NewMatrix(redOmega[l].Rows+redOmega[r].Rows, p)
			omegaIn.View(0, 0, redOmega[l].Rows, p).CopyFrom(redOmega[l])
			omegaIn.View(redOmega[l].Rows, 0, redOmega[r].Rows, p).CopyFrom(redOmega[r])
			redS[l], redOmega[l] = nil, nil
			redS[r], redOmega[r] = nil, nil
		}
		// Row interpolative decomposition: Z ≈ E·Z[sel,:].
		id2 := linalg.InterpDecomp(Z.Transposed(), h.Cfg.Tol, h.Cfg.Rank)
		E := id2.Coef.Transposed()
		sel := id2.Skel
		skel := make([]int, len(sel))
		for k, s := range sel {
			skel[k] = rows[s]
		}
		h.nodes[id].E = E
		h.nodes[id].skel = skel
		redS[id] = Z.RowsGather(sel)
		redOmega[id] = linalg.MatMul(true, false, E, omegaIn)
		if len(skel) > h.MaxRankSeen {
			h.MaxRankSeen = len(skel)
		}
	})
	h.CompressTime = time.Since(start).Seconds()
	return h
}

// AvgRank reports the mean skeleton size over non-root nodes.
func (h *HSS) AvgRank() float64 {
	total, cnt := 0, 0
	for id := 1; id < len(h.nodes); id++ {
		total += len(h.nodes[id].skel)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return float64(total) / float64(cnt)
}

// Matvec computes K̃·W in O(N·r) per right-hand side.
func (h *HSS) Matvec(W *linalg.Matrix) *linalg.Matrix {
	start := time.Now()
	t := h.Tree
	if h.Perm != nil {
		W = W.RowsGather(h.Perm)
	}
	r := W.Cols
	up := make([]*linalg.Matrix, len(t.Nodes))   // x̃
	down := make([]*linalg.Matrix, len(t.Nodes)) // ỹ
	// Upward pass: x̃_τ = Eᵀ·x_τ (leaf) or Eᵀ·[x̃_l; x̃_r].
	t.PostOrder(func(nd *tree.Node) {
		id := nd.ID
		if id == 0 {
			return
		}
		E := h.nodes[id].E
		var in *linalg.Matrix
		if t.IsLeaf(id) {
			in = W.View(nd.Lo, 0, nd.Size(), r)
		} else {
			l, rr := t.Left(id), t.Right(id)
			in = linalg.NewMatrix(up[l].Rows+up[rr].Rows, r)
			in.View(0, 0, up[l].Rows, r).CopyFrom(up[l])
			in.View(up[l].Rows, 0, up[rr].Rows, r).CopyFrom(up[rr])
		}
		out := linalg.NewMatrix(E.Cols, r)
		linalg.Gemm(true, false, 1, E, in, 0, out)
		up[id] = out
	})
	// Coupling: at every interior node, ỹ_l += B x̃_r, ỹ_r += Bᵀ x̃_l.
	for id := range t.Nodes {
		if t.IsLeaf(id) {
			continue
		}
		B := h.nodes[id].B
		l, rr := t.Left(id), t.Right(id)
		if down[l] == nil {
			down[l] = linalg.NewMatrix(h.skelSize(l), r)
		}
		if down[rr] == nil {
			down[rr] = linalg.NewMatrix(h.skelSize(rr), r)
		}
		linalg.Gemm(false, false, 1, B, up[rr], 1, down[l])
		linalg.Gemm(true, false, 1, B, up[l], 1, down[rr])
	}
	// Downward pass and diagonal blocks.
	out := linalg.NewMatrix(W.Rows, r)
	t.PreOrder(func(nd *tree.Node) {
		id := nd.ID
		if id == 0 {
			return
		}
		y := down[id]
		if y == nil {
			return
		}
		E := h.nodes[id].E
		contrib := linalg.NewMatrix(E.Rows, r)
		linalg.Gemm(false, false, 1, E, y, 0, contrib)
		if t.IsLeaf(id) {
			out.View(nd.Lo, 0, nd.Size(), r).AddScaled(1, contrib)
		} else {
			l, rr := t.Left(id), t.Right(id)
			sl := h.skelSize(l)
			if down[l] == nil {
				down[l] = linalg.NewMatrix(sl, r)
			}
			down[l].AddScaled(1, contrib.View(0, 0, sl, r))
			if down[rr] == nil {
				down[rr] = linalg.NewMatrix(contrib.Rows-sl, r)
			}
			down[rr].AddScaled(1, contrib.View(sl, 0, contrib.Rows-sl, r))
		}
	})
	for _, leaf := range t.Leaves() {
		nd := &t.Nodes[leaf]
		D := h.nodes[leaf].D
		wv := W.View(nd.Lo, 0, nd.Size(), r)
		ov := out.View(nd.Lo, 0, nd.Size(), r)
		linalg.Gemm(false, false, 1, D, wv, 1, ov)
	}
	if h.IPerm != nil {
		out = out.RowsGather(h.IPerm)
	}
	h.EvalTime = time.Since(start).Seconds()
	return out
}
