package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
)

// skelWork holds the transient state passed from a SKEL task to its COEF
// task: the pivoted QR factor of the sampled off-diagonal block.
type skelWork struct {
	cols []int // candidate column indices (leaf indices or [l̃ r̃])
	fact *linalg.QRCP
}

// candidateCols returns the candidate columns for node id: the owned indices
// for a leaf, or the concatenated children skeletons for an interior node
// (the nesting α̃ ⊂ l̃ ∪ r̃ of Algorithm 2.6).
func (h *Hierarchical) candidateCols(id int) []int {
	t := h.Tree
	if t.IsLeaf(id) {
		idx := t.Indices(id)
		cols := make([]int, len(idx))
		copy(cols, idx)
		return cols
	}
	l, r := h.nodes[t.Left(id)].skel, h.nodes[t.Right(id)].skel
	cols := make([]int, 0, len(l)+len(r))
	cols = append(cols, l...)
	cols = append(cols, r...)
	return cols
}

// sampleRows performs neighbor-based importance sampling of rows I′ ⊂ I for
// node id, where I is the complement of the node's index set: neighbors of
// the candidate columns that lie outside the subtree come first, then
// uniform fill from the complement. This is the sampling of [32] that makes
// the O(N log N) compression possible — and the quality gap between it and
// uniform sampling is exactly what Figure 7's lexicographic column shows.
func (h *Hierarchical) sampleRows(id int, cols []int, rng *rand.Rand) []int {
	t := h.Tree
	nd := &t.Nodes[id]
	n := h.K.Dim()
	inside := func(j int) bool {
		pos := t.IPerm[j]
		return pos >= nd.Lo && pos < nd.Hi
	}
	budget := min(h.Cfg.SampleRows, n-nd.Size())
	if budget <= 0 {
		return nil
	}
	taken := make(map[int]bool, budget)
	rows := make([]int, 0, budget)
	if h.Neighbors != nil {
		for _, c := range cols {
			if len(rows) >= budget {
				break
			}
			for _, jj := range h.Neighbors.Of(c) {
				j := int(jj)
				if inside(j) || taken[j] {
					continue
				}
				taken[j] = true
				rows = append(rows, j)
				if len(rows) >= budget {
					break
				}
			}
		}
	}
	// Uniform fill from the complement. When the complement is small,
	// enumerate it; otherwise rejection-sample.
	if n-nd.Size() <= 2*budget {
		comp := make([]int, 0, n-nd.Size())
		for j := 0; j < n; j++ {
			if !inside(j) && !taken[j] {
				comp = append(comp, j)
			}
		}
		rng.Shuffle(len(comp), func(a, b int) { comp[a], comp[b] = comp[b], comp[a] })
		for _, j := range comp {
			if len(rows) >= budget {
				break
			}
			rows = append(rows, j)
		}
	} else {
		for len(rows) < budget {
			j := rng.Intn(n)
			if inside(j) || taken[j] {
				continue
			}
			taken[j] = true
			rows = append(rows, j)
		}
	}
	sort.Ints(rows)
	return rows
}

// skelNode runs the SKEL(α) task: sample rows, gather K_{I′,cols}, and run
// the rank-revealing pivoted QR that selects the skeleton α̃ (critical-path
// work, 2s³ + 2m³ in Table 2). The triangular solve that produces the
// interpolation matrix is deferred to coefNode (COEF, any order).
func (h *Hierarchical) skelNode(id int, rng *rand.Rand) *skelWork {
	if h.Cfg.Telemetry != nil {
		defer h.recordSkelNode(id, time.Now())
	}
	cols := h.candidateCols(id)
	w := &skelWork{cols: cols}
	if len(cols) == 0 {
		h.nodes[id].skel = nil
		return w
	}
	rows := h.sampleRows(id, cols, rng)
	if len(rows) == 0 {
		// No complement (root-like): keep everything, identity coefficients.
		h.nodes[id].skel = cols
		return w
	}
	sub := NewGathered(h.K, rows, cols)
	maxRank := min(h.Cfg.MaxRank, min(len(rows), len(cols)))
	w.fact = linalg.QRColumnPivot(sub, h.Cfg.Tol, maxRank)
	// Tolerance miss at MaxRank: the trailing-block estimate of σ_{s+1} is
	// still above Tol·σ₁, so the interpolative decomposition would silently
	// exceed the requested accuracy. Config.Degrade decides: accept the
	// truncation (default), degrade this node to exact identity-interpolation
	// storage, or fail the compression.
	if h.Cfg.Degrade != DegradeTruncate &&
		w.fact.Rank >= maxRank && w.fact.Rank < len(cols) && h.Cfg.Tol > 0 &&
		w.fact.Sigma1 > 0 && w.fact.ResidNorm > h.Cfg.Tol*w.fact.Sigma1 {
		if h.Cfg.Degrade == DegradeStrict {
			h.recordToleranceMiss(fmt.Errorf(
				"%w: node %d: rank %d residual %.3g exceeds %.3g·σ₁ (σ₁=%.3g)",
				resilience.ErrTolerance, id, w.fact.Rank, w.fact.ResidNorm,
				h.Cfg.Tol, w.fact.Sigma1))
		}
		h.nodes[id].skel = cols
		h.nodes[id].denseFallback = true
		w.fact = nil
		if rec := h.Cfg.Telemetry; rec != nil {
			rec.Counter("compress.dense_fallback").Add(1)
		}
		return w
	}
	s := w.fact.Rank
	skel := make([]int, s)
	for k := 0; k < s; k++ {
		skel[k] = cols[w.fact.Piv[k]]
	}
	h.nodes[id].skel = skel
	h.addCompressFlops(4 * float64(len(rows)) * float64(len(cols)) * float64(max(s, 1)))
	return w
}

// coefNode runs COEF(α): form P from the stored QR factor via a triangular
// solve (s³ in Table 2).
func (h *Hierarchical) coefNode(id int, w *skelWork) {
	if w.fact == nil {
		// Identity interpolation (root or degenerate node).
		if h.nodes[id].skel != nil {
			h.nodes[id].proj = h.storeBlock(linalg.Eye(len(h.nodes[id].skel)))
		}
		return
	}
	s := w.fact.Rank
	n := len(w.cols)
	coef := linalg.NewMatrix(s, n)
	for k := 0; k < s; k++ {
		coef.Set(k, w.fact.Piv[k], 1)
	}
	if n > s {
		T := linalg.NewMatrix(s, n-s)
		for j := 0; j < n-s; j++ {
			copy(T.Col(j), w.fact.QR.Col(s + j)[:s])
		}
		linalg.TrsmLeftUpper(false, w.fact.QR, T)
		for j := 0; j < n-s; j++ {
			copy(coef.Col(w.fact.Piv[s+j]), T.Col(j))
		}
		h.addCompressFlops(float64(s) * float64(s) * float64(n-s))
	}
	h.nodes[id].proj = h.storeBlock(coef)
	w.fact = nil // release the factor
}

// nearBlock gathers the near block K(β, α) between the indices of leaves
// β and α; farBlock gathers the far block K(β̃, α̃) between their
// skeletons. Caching, the interpreter, plan lowering and the store all
// gather through these two, so every path sees the same float64 block.
func (h *Hierarchical) nearBlock(beta, alpha int) *linalg.Matrix {
	return NewGathered(h.K, h.Tree.Indices(beta), h.Tree.Indices(alpha))
}

func (h *Hierarchical) farBlock(beta, alpha int) *linalg.Matrix {
	return NewGathered(h.K, h.nodes[beta].skel, h.nodes[alpha].skel)
}

// cacheList runs a Kba (near) or SKba (far) task: it evaluates and stores
// the blocks node id owns in its list of the given kind, one per symmetric
// pair (see slotOwner). With caching, evaluation is pure GEMM.
func (h *Hierarchical) cacheList(kind listKind, id int) {
	_, cache := h.list(kind, id)
	*cache = h.ownedBlocks(kind, id, true)
}
