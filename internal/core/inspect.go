package core

import (
	"fmt"
	"strings"
)

// CompressedBytes returns the memory footprint of the compressed
// representation in bytes (interpolation coefficients T and their column
// order, skeleton index lists, interaction lists, cached blocks,
// permutation), counting each block in the precision it is stored in and
// each symmetric pair's block once. The paper's storage claim is
// O(N log N) versus the dense 8·N² — see Stats and the compression-ratio
// tests.
func (h *Hierarchical) CompressedBytes() int64 {
	var b int64
	for id := range h.nodes {
		nd := &h.nodes[id]
		b += int64(len(nd.skel)+len(nd.pos)+len(nd.near)+len(nd.far)) * 8
		b += nd.coef.bytes()
		for _, blk := range nd.cacheNear {
			b += blk.bytes()
		}
		for _, blk := range nd.cacheFar {
			b += blk.bytes()
		}
	}
	b += int64(len(h.Tree.Perm)) * 16 // perm + iperm
	return b
}

// CompressionRatio returns CompressedBytes / (8·N²), the fraction of dense
// storage the compressed form needs.
func (h *Hierarchical) CompressionRatio() float64 {
	n := float64(h.K.Dim())
	return float64(h.CompressedBytes()) / (8 * n * n)
}

// StructureString renders the leaf-level block structure of the compressed
// matrix as ASCII art, mirroring Figure 2 of the paper: '#' marks near
// (dense) leaf blocks, letters mark far (low-rank) blocks at the tree level
// where the interaction is expressed ('a' = level 1, 'b' = level 2, …).
// Intended for small trees (≤ 64 leaves).
func (h *Hierarchical) StructureString() string {
	t := h.Tree
	nl := t.NumLeaves()
	grid := make([][]byte, nl)
	for i := range grid {
		grid[i] = fillRow('.', nl)
	}
	leafOrdinal := func(id int) int { return id - (nl - 1) }
	// Near blocks.
	for _, beta := range t.Leaves() {
		for _, alpha := range h.nodes[beta].near {
			grid[leafOrdinal(beta)][leafOrdinal(alpha)] = '#'
		}
	}
	// Far blocks: mark every leaf pair covered by the node pair.
	for id := range h.nodes {
		rb0, rb1 := leafRange(t, id)
		level := t.Nodes[id].Level
		for _, alpha := range h.nodes[id].far {
			cb0, cb1 := leafRange(t, alpha)
			mark := byte('a' + level - 1)
			if level == 0 {
				mark = '@' // root-level far block (should not occur)
			}
			for r := rb0; r < rb1; r++ {
				for c := cb0; c < cb1; c++ {
					grid[r][c] = mark
				}
			}
		}
	}
	var sb strings.Builder
	for _, row := range grid {
		sb.Write(row)
		sb.WriteByte('\n')
	}
	if fb := h.DenseFallbacks(); len(fb) > 0 {
		sb.WriteString("dense-fallback nodes:")
		for _, id := range fb {
			fmt.Fprintf(&sb, " %d", id)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func fillRow(fill byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

// RankProfile returns the average skeleton rank per tree level (index =
// level; the root entry is 0 since the root is never skeletonized). Useful
// for diagnosing whether a matrix has bounded off-diagonal ranks (FMM/H²
// behaviour) or ranks that grow toward the root (the HODLR/HSS failure mode
// discussed in the paper's related-work section).
func (h *Hierarchical) RankProfile() []float64 {
	t := h.Tree
	sum := make([]float64, t.Depth+1)
	cnt := make([]float64, t.Depth+1)
	for id := 1; id < len(t.Nodes); id++ {
		l := t.Nodes[id].Level
		sum[l] += float64(len(h.nodes[id].skel))
		cnt[l]++
	}
	for l := range sum {
		if cnt[l] > 0 {
			sum[l] /= cnt[l]
		}
	}
	return sum
}
