package hss

import (
	"errors"
	"fmt"

	"gofmm/internal/core"
	"gofmm/internal/resilience"
)

// ErrNotHSS is returned when a GOFMM compression has a nonzero sparse
// correction and therefore no HSS structure to convert.
var ErrNotHSS = errors.New("hss: GOFMM form has direct (near) interactions; compress with Budget 0")

// FromGOFMM converts a GOFMM compression in HSS mode (Budget 0: S = 0, far
// lists are exactly the siblings) into an HSS representation, unlocking the
// hierarchical direct solver (Factor/Solve) for geometry-obliviously
// permuted matrices — the combination of the paper's contribution with its
// stated future work. The conversion is exact: GOFMM's column
// interpolation K_{Iβ} ≈ K_{Iβ̃}·P_β̃β is, by symmetry, the row basis
// E_β = P_β̃βᵀ, the couplings are B = K(l̃, r̃), and the leaf diagonal
// blocks transfer directly.
func FromGOFMM(g *core.Hierarchical) (*HSS, error) {
	if !g.IsHSS() {
		return nil, ErrNotHSS
	}
	// The conversion gathers diagonal and coupling blocks from the entry
	// oracle; an operator loaded from the store has none to gather from.
	if !g.HasOracle() {
		return nil, fmt.Errorf("hss: conversion gathers fresh blocks: %w", core.ErrNoOracle)
	}
	t := g.Tree
	h := &HSS{
		Cfg:       Config{LeafSize: g.Cfg.LeafSize, Rank: g.Cfg.MaxRank, Tol: g.Cfg.Tol},
		Tree:      t,
		nodes:     make([]node, len(t.Nodes)),
		n:         g.K.Dim(),
		Perm:      append([]int(nil), t.Perm...),
		IPerm:     append([]int(nil), t.IPerm...),
		Telemetry: g.Cfg.Telemetry,
	}
	for id := range t.Nodes {
		if t.IsLeaf(id) {
			idx := t.Indices(id)
			h.nodes[id].D = core.NewGathered(g.K, idx, idx)
			if id == 0 {
				return h, nil // degenerate single-leaf tree
			}
		}
		if !t.IsLeaf(id) {
			l, r := t.Left(id), t.Right(id)
			h.nodes[id].B = core.NewGathered(g.K, g.Skeleton(l), g.Skeleton(r))
		}
		if id == 0 {
			continue
		}
		p := g.Proj(id)
		if p == nil {
			return nil, fmt.Errorf("%w: GOFMM node %d has no interpolation matrix",
				resilience.ErrInvalidInput, id)
		}
		h.nodes[id].E = p.Transposed()
		h.nodes[id].skel = g.Skeleton(id)
		if s := len(h.nodes[id].skel); s > h.MaxRankSeen {
			h.MaxRankSeen = s
		}
	}
	return h, nil
}
