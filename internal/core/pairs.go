package core

import (
	"slices"

	"gofmm/internal/linalg"
	"gofmm/internal/plan"
)

// Ownership of the symmetric near and far blocks. K̃ is symmetric by
// construction — symmetrized near lists and dual-tree far lists — so when
// two nodes list each other, K(α, β) = K(β, α)ᵀ and one stored block serves
// both list slots. The lower node ID owns the pair and stores
// K(owner, partner), between skeletons for a far pair; the partner's slot
// applies the owner's block transposed. A node whose partner does not list
// it back, as NoSymmetrize (ASKIT) lists allow, keeps its own block, so one
// rule covers both list modes. Caching, the interpreter, the plan lowering
// and the store all resolve slots through slotOwner, so the rule lives here.

// block is a constant operand — a basis's T block or a cached near or far
// block — stored in float64 (m) or in float32 (m32). The zero block is
// absent.
type block struct {
	m   *linalg.Matrix
	m32 *linalg.Matrix32
}

// ok reports whether the block is present.
func (b block) ok() bool { return b.m != nil || b.m32 != nil }

// dims returns the stored shape.
func (b block) dims() (rows, cols int) {
	if b.m32 != nil {
		return b.m32.Rows, b.m32.Cols
	}
	if b.m != nil {
		return b.m.Rows, b.m.Cols
	}
	return 0, 0
}

// bytes returns the storage footprint.
func (b block) bytes() int64 {
	rows, cols := b.dims()
	if b.m32 != nil {
		return int64(rows) * int64(cols) * 4
	}
	return int64(rows) * int64(cols) * 8
}

// gemm computes C = op(b)·B + beta·C with the interpreter's kernels.
func (b block) gemm(trans bool, B *linalg.Matrix, beta float64, C *linalg.Matrix) {
	if b.m32 != nil {
		linalg.GemmMixed(trans, 1, b.m32, B, beta, C)
		return
	}
	linalg.Gemm(trans, false, 1, b.m, B, beta, C)
}

// emit appends the plan record dst = op(b)·src + beta·dst.
func (b block) emit(pb *plan.Builder, trans bool, src, dst plan.Ref, beta float64) {
	if b.m32 != nil {
		pb.GemmMixed(trans, b.m32, src, dst, beta)
		return
	}
	pb.Gemm(trans, b.m, src, dst, beta)
}

// emitPair appends the plan record that applies b both ways, dst =
// b·src + beta·dst and tdst = bᵀ·tsrc: the two halves of a stored pair.
func (b block) emitPair(pb *plan.Builder, src, dst plan.Ref, beta float64, tsrc, tdst plan.Ref) {
	if b.m32 != nil {
		pb.GemmMixedPair(b.m32, src, dst, beta, tsrc, tdst)
		return
	}
	pb.GemmPair(b.m, src, dst, beta, tsrc, tdst)
}

// storeBlock rounds m to float32 under Config.CacheSingle.
func (h *Hierarchical) storeBlock(m *linalg.Matrix) block {
	if h.Cfg.CacheSingle {
		return block{m32: linalg.ToMatrix32(m)}
	}
	return block{m: m}
}

// listKind selects a node's near or far interaction list.
type listKind int

const (
	nearList listKind = iota
	farList
)

// list returns node id's interaction list of the given kind and a pointer
// to its block cache (nil when the compression did not cache it).
func (h *Hierarchical) list(kind listKind, id int) ([]int, *[]block) {
	nd := &h.nodes[id]
	if kind == nearList {
		return nd.near, &nd.cacheNear
	}
	return nd.far, &nd.cacheFar
}

// slotOwner maps list slot k of node id to the node and slot that store
// its block; trans reports that the slot applies that block transposed.
// Lists are sorted, so the partner's slot is a binary search away.
func (h *Hierarchical) slotOwner(kind listKind, id, k int) (owner, slot int, trans bool) {
	lst, _ := h.list(kind, id)
	alpha := lst[k]
	if alpha < id {
		back, _ := h.list(kind, alpha)
		if j, found := slices.BinarySearch(back, id); found {
			return alpha, j, true
		}
	}
	return id, k, false
}

// slotBlock returns the cached block behind list slot k of node id and
// whether the slot applies it transposed; the block is absent when its
// owner did not cache it.
func (h *Hierarchical) slotBlock(kind listKind, id, k int) (block, bool) {
	owner, slot, trans := h.slotOwner(kind, id, k)
	if _, cache := h.list(kind, owner); *cache != nil {
		return (*cache)[slot], trans
	}
	return block{}, trans
}

// gather evaluates K(id, α) for the list of the given kind: the near block
// between leaf indices or the far block between skeletons.
func (h *Hierarchical) gather(kind listKind, id, alpha int) *linalg.Matrix {
	if kind == nearList {
		return h.nearBlock(id, alpha)
	}
	return h.farBlock(id, alpha)
}

// ownedBlocks gathers the blocks node id owns in its list of the given
// kind, one per owned slot, rounded under CacheSingle when round is set;
// partner-owned slots stay absent.
func (h *Hierarchical) ownedBlocks(kind listKind, id int, round bool) []block {
	lst, _ := h.list(kind, id)
	out := make([]block, len(lst))
	for k, alpha := range lst {
		if _, _, trans := h.slotOwner(kind, id, k); trans {
			continue
		}
		m := h.gather(kind, id, alpha)
		if round {
			out[k] = h.storeBlock(m)
		} else {
			out[k] = block{m: m}
		}
	}
	return out
}

// contributes reports whether node id's list of the given kind enters the
// evaluation: leaves' near lists do, and far lists of nodes with a
// skeleton.
func (h *Hierarchical) contributes(kind listKind, id int) bool {
	if kind == nearList {
		return h.Tree.IsLeaf(id)
	}
	return len(h.nodes[id].skel) > 0
}
