package core

import (
	"context"

	"gofmm/internal/linalg"
)

// Matmat computes U ≈ K·X for an n×r block of right-hand sides — the
// batched form of Matvec. One symbolic traversal and one workspace scope
// serve the whole block, so every N2S/S2S/S2N/L2L kernel runs as an r-wide
// GEMM instead of r GEMV-shaped passes; at r ≥ 16 the register-tiled
// kernels saturate and a single Matmat substantially outruns r Matvec
// calls (see `repro pr4`). Column j of the result is bit-identical to
// Matvec of column j: the passes visit nodes in the same order and each
// kernel accumulates every column with the same reduction order.
// Matmat is the legacy uncancellable entry point; it panics on the errors
// MatmatCtx would return.
func (h *Hierarchical) Matmat(X *linalg.Matrix) *linalg.Matrix {
	U, err := h.MatmatCtx(context.Background(), X)
	if err != nil {
		panic(err)
	}
	return U
}

// MatmatCtx is Matmat with cancellation and typed errors, mirroring
// MatvecCtx. It additionally records the block width distribution in the
// "matmat.width" histogram so a serving deployment can see how well the
// BatchEvaluator is coalescing.
func (h *Hierarchical) MatmatCtx(ctx context.Context, X *linalg.Matrix) (*linalg.Matrix, error) {
	if rec := h.Cfg.Telemetry; rec != nil && X != nil {
		rec.Histogram("matmat.width").Observe(float64(X.Cols))
	}
	return h.evalNew(ctx, h.evalPlan.Load(), X, "matmat")
}

// InterpMatmatCtx is MatmatCtx pinned to the tree interpreter, bypassing any
// installed compiled plan — the reference path of the equivalence suite.
func (h *Hierarchical) InterpMatmatCtx(ctx context.Context, X *linalg.Matrix) (*linalg.Matrix, error) {
	if rec := h.Cfg.Telemetry; rec != nil && X != nil {
		rec.Histogram("matmat.width").Observe(float64(X.Cols))
	}
	return h.evalNew(ctx, nil, X, "matmat")
}
