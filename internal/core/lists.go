package core

import (
	"sort"

	"gofmm/internal/tree"
)

// buildNearLists runs LeafNear (Algorithm 2.3) with the budget ballot of
// Eq. (6) for every leaf, then optionally symmetrizes the near relation.
//
// For each leaf β the neighbors of all i ∈ β vote for the leaves that
// contain them; candidates are admitted in descending vote order until the
// budget cap |Near(β)| ≤ budget·(N/m) is reached. β itself is always near
// (the diagonal block is never approximated).
func (h *Hierarchical) buildNearLists() {
	t := h.Tree
	numLeaves := t.NumLeaves()
	// Eq. (6): |Near(β)| < budget·(N/m). At paper scale N/m is 128–512 so
	// the cap is several leaves; at laptop scale the product can truncate
	// to zero, which would silently turn every positive budget into HSS —
	// so any positive budget admits at least one voted leaf.
	cap := int(h.Cfg.Budget * float64(numLeaves))
	if h.Cfg.Budget > 0 && cap < 1 {
		cap = 1
	}
	nearSets := make([]map[int]bool, len(h.nodes))
	for _, beta := range t.Leaves() {
		set := map[int]bool{beta: true}
		if h.Neighbors != nil && cap > 0 {
			votes := map[int]int{}
			for _, i := range t.Indices(beta) {
				for _, j := range h.Neighbors.Of(i) {
					leaf := t.LeafOfIndex(int(j))
					if leaf != beta {
						votes[leaf]++
					}
				}
			}
			// Admit by descending votes (ties by node ID for determinism).
			cand := make([]int, 0, len(votes))
			for leaf := range votes {
				cand = append(cand, leaf)
			}
			sort.Slice(cand, func(a, b int) bool {
				if votes[cand[a]] != votes[cand[b]] {
					return votes[cand[a]] > votes[cand[b]]
				}
				return cand[a] < cand[b]
			})
			for _, leaf := range cand {
				if len(set)-1 >= cap {
					break
				}
				set[leaf] = true
			}
		}
		nearSets[beta] = set
	}
	// Enforce symmetry: if α ∈ Near(β) then β ∈ Near(α). This may exceed
	// the budget slightly, exactly as in the paper, which prioritizes a
	// symmetric K̃.
	if !h.Cfg.NoSymmetrize {
		for _, beta := range t.Leaves() {
			for alpha := range nearSets[beta] {
				nearSets[alpha][beta] = true
			}
		}
	}
	for _, beta := range t.Leaves() {
		lst := make([]int, 0, len(nearSets[beta]))
		for a := range nearSets[beta] {
			lst = append(lst, a)
		}
		sort.Ints(lst)
		h.nodes[beta].near = lst
	}
}

// buildFarLists constructs the far interaction lists. Two constructions are
// provided:
//
//   - The symmetric dual-tree descent (default): equal-level node pairs
//     (a, b) are admissible when no leaf pair (λ ∈ a, μ ∈ b) is near;
//     inadmissible interior pairs recurse into their four child pairs. This
//     produces exactly the nested H²/FMM block structure, and — because the
//     near relation was symmetrized — symmetric far lists, which is how
//     GOFMM guarantees a symmetric K̃.
//
//   - The per-leaf FindFar (Algorithm 2.4) followed by MergeFar
//     (Algorithm 2.5), used in the asymmetric (ASKIT-style, NoSymmetrize)
//     mode. It tiles each row block exactly but may express the (β,α) and
//     (α,β) blocks at different granularities.
//
// Both tile the complement of the near leaf pairs exactly once (verified by
// the coverage tests).
func (h *Hierarchical) buildFarLists() {
	if h.Cfg.NoSymmetrize {
		h.buildFarListsLeafwise()
	} else {
		h.buildFarListsSymmetric()
	}
	// Keep lists sorted for deterministic evaluation order.
	for id := range h.nodes {
		sort.Ints(h.nodes[id].far)
	}
}

// buildFarListsSymmetric performs the symmetric dual-tree descent.
func (h *Hierarchical) buildFarListsSymmetric() {
	t := h.Tree
	// nearLeavesOf[id]: sorted leaf ordinals near any leaf under node id.
	firstLeaf := (1 << t.Depth) - 1
	nearLeavesOf := make([][]int32, len(h.nodes))
	var fill func(id int) []int32
	fill = func(id int) []int32 {
		var s []int32
		if t.IsLeaf(id) {
			for _, a := range h.nodes[id].near {
				s = append(s, int32(a-firstLeaf))
			}
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		} else {
			s = mergeSorted(fill(t.Left(id)), fill(t.Right(id)))
		}
		nearLeavesOf[id] = s
		return s
	}
	fill(0)
	// leafRange[id] = [lo, hi) of leaf ordinals under node id.
	connected := func(a, b int) bool {
		lo, hi := leafRange(t, b)
		s := nearLeavesOf[a]
		// Any entry of s in [lo, hi)?
		k := sort.Search(len(s), func(i int) bool { return s[i] >= int32(lo) })
		return k < len(s) && s[k] < int32(hi)
	}
	var descend func(a, b int)
	descend = func(a, b int) {
		if !connected(a, b) {
			h.nodes[a].far = append(h.nodes[a].far, b)
			if a != b {
				h.nodes[b].far = append(h.nodes[b].far, a)
			}
			return
		}
		if t.IsLeaf(a) {
			return // near leaf pair: handled by L2L
		}
		la, ra := t.Left(a), t.Right(a)
		lb, rb := t.Left(b), t.Right(b)
		if a == b {
			descend(la, la)
			descend(la, rb)
			descend(ra, ra)
			return
		}
		descend(la, lb)
		descend(la, rb)
		descend(ra, lb)
		descend(ra, rb)
	}
	descend(0, 0)
}

// mergeSorted merges two sorted int32 slices, deduplicating.
func mergeSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int32
		switch {
		case j >= len(b) || (i < len(a) && a[i] <= b[j]):
			v = a[i]
			i++
		default:
			v = b[j]
			j++
		}
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// leafRange returns the ordinals [lo, hi) of the leaves under node id.
func leafRange(t *tree.Tree, id int) (int, int) {
	nd := &t.Nodes[id]
	span := 1 << (t.Depth - nd.Level)
	lo := nd.Morton.Path() << (t.Depth - nd.Level)
	return int(lo), int(lo) + span
}

// buildFarListsLeafwise is the per-leaf FindFar + MergeFar construction of
// Algorithms 2.4–2.5, used in asymmetric mode.
func (h *Hierarchical) buildFarListsLeafwise() {
	t := h.Tree
	for _, beta := range t.Leaves() {
		near := h.nodes[beta].near
		mortons := make([]tree.Morton, len(near))
		for k, a := range near {
			mortons[k] = t.Nodes[a].Morton
		}
		h.findFar(beta, 0, mortons)
	}
	h.mergeFar(0)
}

// findFar visits α (recursively from the root): if α's subtree contains any
// leaf near β we must descend; otherwise the whole block K_βα is admissible
// and α joins Far(β).
func (h *Hierarchical) findFar(beta, alpha int, nearMortons []tree.Morton) {
	t := h.Tree
	am := t.Nodes[alpha].Morton
	intersects := false
	for _, m := range nearMortons {
		if am.IsAncestorOf(m) {
			intersects = true
			break
		}
	}
	if !intersects {
		h.nodes[beta].far = append(h.nodes[beta].far, alpha)
		return
	}
	if t.IsLeaf(alpha) {
		return // α ∈ Near(β): handled by the direct L2L evaluation
	}
	h.findFar(beta, t.Left(alpha), nearMortons)
	h.findFar(beta, t.Right(alpha), nearMortons)
}

// mergeFar moves entries common to both children one level up (postorder).
func (h *Hierarchical) mergeFar(alpha int) {
	t := h.Tree
	if t.IsLeaf(alpha) {
		return
	}
	l, r := t.Left(alpha), t.Right(alpha)
	h.mergeFar(l)
	h.mergeFar(r)
	inL := map[int]bool{}
	for _, a := range h.nodes[l].far {
		inL[a] = true
	}
	common := map[int]bool{}
	for _, a := range h.nodes[r].far {
		if inL[a] {
			common[a] = true
		}
	}
	if len(common) == 0 {
		return
	}
	filter := func(lst []int) []int {
		out := lst[:0]
		for _, a := range lst {
			if !common[a] {
				out = append(out, a)
			}
		}
		return out
	}
	h.nodes[l].far = filter(h.nodes[l].far)
	h.nodes[r].far = filter(h.nodes[r].far)
	merged := make([]int, 0, len(common))
	for a := range common {
		merged = append(merged, a)
	}
	sort.Ints(merged)
	h.nodes[alpha].far = append(h.nodes[alpha].far, merged...)
}
