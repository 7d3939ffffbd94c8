package hss

import (
	"context"
	"fmt"

	"gofmm/internal/linalg"
	"gofmm/internal/resilience"
	"gofmm/internal/tree"
)

// Factorization is a direct solver for the compressed operator K̃ — the
// "hierarchical matrix factorization" the paper defers to future work
// (§5: "Our future work will focus on ... the hierarchical matrix
// factorization based on our method"). It performs a recursive Schur
// elimination through the skeleton hierarchy (the extended-sparse-system
// view of ULV-type HSS solvers): each leaf contributes
//
//	S_τ = E_τᵀ D_τ⁻¹ E_τ,
//
// each interior node solves the small coupled system
//
//	M = I + [0 B; Bᵀ 0]·diag(S_l, S_r)
//
// and propagates S_α = E_αᵀ diag(S)·M⁻¹·E_α upward; the downward sweep
// recovers the skeleton potentials and finally x = D⁻¹(b − E·y) per leaf.
// Cost is O(N·s²) after compression.
type Factorization struct {
	h *HSS
	// Per-leaf Cholesky factor of D.
	chol []*linalg.Matrix
	// Per-node reduced Schur complement S and the LU of the coupled system.
	schur []*linalg.Matrix
	lu    []*linalg.LU
	luRt  *linalg.LU // root coupled system

	// Jitter is the largest diagonal regularization λ that had to be added
	// to recover a failed factorization (0 when everything factored clean);
	// RegularizedNodes counts the nodes that needed it. A nonzero Jitter
	// means Solve targets K̃ + λI rather than K̃ on those blocks — graceful
	// degradation, recorded so the caller can judge the perturbation.
	Jitter           float64
	RegularizedNodes int
}

// factorRetries is the escalation budget: λ starts at ~1e-12·avg(diag) and
// multiplies by 100 per attempt, so the last attempt is a perturbation of
// roughly 1e-2·avg(diag).
const factorRetries = 6

// jitteredDiag returns a copy of A with λ added to the diagonal.
func jitteredDiag(A *linalg.Matrix, lam float64) *linalg.Matrix {
	J := A.Clone()
	for i := 0; i < J.Rows && i < J.Cols; i++ {
		J.Add(i, i, lam)
	}
	return J
}

// baseJitter picks the starting regularization from the magnitude of A's
// diagonal so the escalation is scale-invariant.
func baseJitter(A *linalg.Matrix) float64 {
	n := min(A.Rows, A.Cols)
	if n == 0 {
		return 1e-12
	}
	var avg float64
	for i := 0; i < n; i++ {
		v := A.At(i, i)
		if v < 0 {
			v = -v
		}
		avg += v
	}
	avg /= float64(n)
	if avg == 0 {
		return 1e-12
	}
	return 1e-12 * avg
}

// recordJitter folds one recovered factorization into the degradation stats.
func (f *Factorization) recordJitter(lam float64) {
	if lam <= 0 {
		return
	}
	f.RegularizedNodes++
	if lam > f.Jitter {
		f.Jitter = lam
	}
}

// cholJittered factors D, retrying with escalating diagonal regularization
// when D is not numerically SPD (compression error can push small
// eigenvalues negative). Returns the factor and the λ that was needed.
func cholJittered(D *linalg.Matrix) (*linalg.Matrix, float64, error) {
	L, err := linalg.Cholesky(D)
	if err == nil {
		return L, 0, nil
	}
	lam := baseJitter(D)
	for k := 0; k < factorRetries; k++ {
		if L, jerr := linalg.Cholesky(jitteredDiag(D, lam)); jerr == nil {
			return L, lam, nil
		}
		lam *= 100
	}
	return nil, 0, err
}

// luJittered factors M, retrying with escalating diagonal regularization
// when M is numerically singular.
func luJittered(M *linalg.Matrix) (*linalg.LU, float64, error) {
	lu, err := linalg.LUFactor(M)
	if err == nil {
		return lu, 0, nil
	}
	lam := baseJitter(M)
	for k := 0; k < factorRetries; k++ {
		if lu, jerr := linalg.LUFactor(jitteredDiag(M, lam)); jerr == nil {
			return lu, lam, nil
		}
		lam *= 100
	}
	return nil, 0, err
}

// Factor builds the direct solver. A leaf diagonal block that is not
// numerically positive definite (K̃ can lose definiteness when the
// compression error is large — a limitation the paper notes) is retried
// with escalating diagonal regularization; Factor fails only when even the
// largest jitter cannot rescue the block. The applied perturbation is
// reported in Factorization.Jitter/RegularizedNodes and telemetry.
func (h *HSS) Factor() (*Factorization, error) {
	return h.FactorCtx(context.Background())
}

// FactorCtx is Factor with cancellation (checked at every tree node).
func (h *HSS) FactorCtx(ctx context.Context) (*Factorization, error) {
	defer h.Telemetry.StartSpan("hss.factor").End()
	t := h.Tree
	f := &Factorization{
		h:     h,
		chol:  make([]*linalg.Matrix, len(t.Nodes)),
		schur: make([]*linalg.Matrix, len(t.Nodes)),
		lu:    make([]*linalg.LU, len(t.Nodes)),
	}
	var err error
	t.PostOrder(func(nd *tree.Node) {
		if err != nil {
			return
		}
		if err = resilience.FromContext(ctx); err != nil {
			return
		}
		id := nd.ID
		if t.IsLeaf(id) {
			if id == 0 {
				// Single-leaf tree: plain dense Cholesky.
				var lam float64
				f.chol[0], lam, err = cholJittered(h.nodes[0].D)
				f.recordJitter(lam)
				return
			}
			L, lam, cerr := cholJittered(h.nodes[id].D)
			if cerr != nil {
				err = fmt.Errorf("hss: leaf %d: %w", id, cerr)
				return
			}
			f.recordJitter(lam)
			f.chol[id] = L
			// S = Eᵀ D⁻¹ E.
			E := h.nodes[id].E
			DinvE := E.Clone()
			linalg.CholSolve(L, DinvE)
			f.schur[id] = linalg.MatMul(true, false, E, DinvE)
			return
		}
		l, r := t.Left(id), t.Right(id)
		sl, sr := f.schur[l], f.schur[r]
		M := coupledSystem(h.nodes[id].B, sl, sr)
		lu, lam, lerr := luJittered(M)
		if lerr != nil {
			err = fmt.Errorf("hss: node %d reduced system: %w", id, lerr)
			return
		}
		f.recordJitter(lam)
		if id == 0 {
			f.luRt = lu
			return
		}
		f.lu[id] = lu
		// S_α = E_αᵀ · diag(S) · M⁻¹ · E_α.
		E := h.nodes[id].E
		MinvE := E.Clone()
		lu.Solve(MinvE)
		DS := applyDiagSchur(sl, sr, MinvE)
		f.schur[id] = linalg.MatMul(true, false, E, DS)
	})
	if err != nil {
		return nil, err
	}
	if rec := h.Telemetry; rec != nil && f.RegularizedNodes > 0 {
		rec.Counter("hss.factor.regularized_nodes").Add(int64(f.RegularizedNodes))
		rec.Gauge("hss.factor.jitter").Set(f.Jitter)
	}
	return f, nil
}

// coupledSystem forms M = I + [0 B; Bᵀ 0]·diag(S_l, S_r) (its LU
// factorization clones it, so M itself is transient).
func coupledSystem(B, sl, sr *linalg.Matrix) *linalg.Matrix {
	nl, nr := sl.Rows, sr.Rows
	M := linalg.NewMatrix(nl+nr, nl+nr)
	for i := 0; i < nl+nr; i++ {
		M.Set(i, i, 1)
	}
	if nl > 0 && nr > 0 {
		// Top-right block: B·S_r; bottom-left: Bᵀ·S_l.
		tr := M.View(0, nl, nl, nr)
		linalg.Gemm(false, false, 1, B, sr, 1, tr)
		bl := M.View(nl, 0, nr, nl)
		linalg.Gemm(true, false, 1, B, sl, 1, bl)
	}
	return M
}

// applyDiagSchur returns diag(S_l, S_r)·X for X with S_l.Rows+S_r.Rows rows.
func applyDiagSchur(sl, sr, X *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(X.Rows, X.Cols)
	nl := sl.Rows
	if nl > 0 {
		linalg.Gemm(false, false, 1, sl, X.View(0, 0, nl, X.Cols), 0, out.View(0, 0, nl, X.Cols))
	}
	if sr.Rows > 0 {
		linalg.Gemm(false, false, 1, sr, X.View(nl, 0, sr.Rows, X.Cols), 0, out.View(nl, 0, sr.Rows, X.Cols))
	}
	return out
}

// Solve returns x with K̃·x = B (multiple right-hand sides supported: both
// sweeps process all of B's columns as one block, so a multi-column solve
// amortizes every small factor application the same way Matmat amortizes
// the evaluation passes). Each call allocates its own scratch and result,
// so concurrent solves on one factorization are safe. Solve is the legacy
// uncancellable entry point; it panics on the errors SolveCtx would return.
func (f *Factorization) Solve(B *linalg.Matrix) *linalg.Matrix {
	X, err := f.SolveCtx(context.Background(), B)
	if err != nil {
		panic(err)
	}
	return X
}

// SolveCtx is Solve with cancellation (checked at every tree node of both
// sweeps) and typed errors for invalid input.
func (f *Factorization) SolveCtx(ctx context.Context, B *linalg.Matrix) (*linalg.Matrix, error) {
	h := f.h
	if B == nil {
		return nil, fmt.Errorf("%w: hss: Solve right-hand side is nil", resilience.ErrInvalidInput)
	}
	if B.Rows != h.n {
		return nil, fmt.Errorf("%w: hss: Solve with %d rows, matrix dim %d",
			resilience.ErrInvalidInput, B.Rows, h.n)
	}
	defer h.Telemetry.StartSpan("hss.solve").End()
	t := h.Tree
	if h.Perm != nil {
		B = B.RowsGather(h.Perm)
	}
	r := B.Cols
	if t.IsLeaf(0) {
		X := B.Clone()
		linalg.CholSolve(f.chol[0], X)
		if h.IPerm != nil {
			X = X.RowsGather(h.IPerm)
		}
		return X, nil
	}
	// Upward sweep: g_τ = Eᵀ D⁻¹ b (leaf);
	// g_α = E_αᵀ (I − diag(S)·M⁻¹·C) g_lr (interior).
	var err error
	g := make([]*linalg.Matrix, len(t.Nodes))
	dinvB := make([]*linalg.Matrix, len(t.Nodes)) // leaf D⁻¹ b, reused later
	t.PostOrder(func(nd *tree.Node) {
		id := nd.ID
		if id == 0 || err != nil {
			return
		}
		if err = resilience.FromContext(ctx); err != nil {
			return
		}
		E := h.nodes[id].E
		if t.IsLeaf(id) {
			xb := B.View(nd.Lo, 0, nd.Size(), r).Clone()
			linalg.CholSolve(f.chol[id], xb)
			dinvB[id] = xb
			g[id] = linalg.MatMul(true, false, E, xb)
			return
		}
		l, rr := t.Left(id), t.Right(id)
		glr := stack(g[l], g[rr])
		red := f.reduceDown(id, glr) // M⁻¹·C·g_lr
		glr.AddScaled(-1, applyDiagSchur(f.schur[l], f.schur[rr], red))
		g[id] = linalg.MatMul(true, false, E, glr)
	})
	if err != nil {
		return nil, err
	}
	// Downward sweep: y_lr = M⁻¹ (C·g_lr + E_α·y_α).
	y := make([]*linalg.Matrix, len(t.Nodes))
	t.PreOrder(func(nd *tree.Node) {
		id := nd.ID
		if t.IsLeaf(id) || err != nil {
			return
		}
		if err = resilience.FromContext(ctx); err != nil {
			return
		}
		l, rr := t.Left(id), t.Right(id)
		glr := stack(g[l], g[rr])
		rhs := applyCoupling(h.nodes[id].B, glr)
		if id != 0 && y[id] != nil {
			linalg.Gemm(false, false, 1, h.nodes[id].E, y[id], 1, rhs)
		}
		if id == 0 {
			f.luRt.Solve(rhs)
		} else {
			f.lu[id].Solve(rhs)
		}
		nl := g[l].Rows
		y[l] = rhs.View(0, 0, nl, r).Clone()
		y[rr] = rhs.View(nl, 0, rhs.Rows-nl, r).Clone()
	})
	if err != nil {
		return nil, err
	}
	// Leaves: x = D⁻¹(b − E·y) = D⁻¹b − D⁻¹E·y.
	X := linalg.NewMatrix(B.Rows, r)
	for _, leaf := range t.Leaves() {
		nd := &t.Nodes[leaf]
		xv := X.View(nd.Lo, 0, nd.Size(), r)
		xv.CopyFrom(dinvB[leaf])
		if y[leaf] != nil && y[leaf].Rows > 0 {
			Ey := linalg.MatMul(false, false, h.nodes[leaf].E, y[leaf])
			linalg.CholSolve(f.chol[leaf], Ey)
			xv.AddScaled(-1, Ey)
		}
	}
	if h.IPerm != nil {
		X = X.RowsGather(h.IPerm)
	}
	return X, nil
}

// reduceDown computes M⁻¹·C·g for node id.
func (f *Factorization) reduceDown(id int, glr *linalg.Matrix) *linalg.Matrix {
	rhs := applyCoupling(f.h.nodes[id].B, glr)
	if id == 0 {
		f.luRt.Solve(rhs)
	} else {
		f.lu[id].Solve(rhs)
	}
	return rhs
}

// applyCoupling computes C·g with C = [0 B; Bᵀ 0] where the split point is
// B.Rows.
func applyCoupling(B, glr *linalg.Matrix) *linalg.Matrix {
	nl := B.Rows
	nr := glr.Rows - nl
	out := linalg.NewMatrix(glr.Rows, glr.Cols)
	if nl > 0 && nr > 0 {
		linalg.Gemm(false, false, 1, B, glr.View(nl, 0, nr, glr.Cols), 0, out.View(0, 0, nl, glr.Cols))
		linalg.Gemm(true, false, 1, B, glr.View(0, 0, nl, glr.Cols), 0, out.View(nl, 0, nr, glr.Cols))
	}
	return out
}

// stack returns [a; b].
func stack(a, b *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(a.Rows+b.Rows, a.Cols)
	if a.Rows > 0 {
		out.View(0, 0, a.Rows, a.Cols).CopyFrom(a)
	}
	if b.Rows > 0 {
		out.View(a.Rows, 0, b.Rows, b.Cols).CopyFrom(b)
	}
	return out
}

// LogDet returns log det(K̃), assembled from the factorization via the
// matrix determinant lemma applied recursively:
//
//	det(K̃) = Π_leaves det(D_τ) · Π_interior det(I + C·diag(S_l, S_r)),
//
// the Gaussian-process-likelihood workload that makes hierarchical
// factorizations valuable (log-marginal likelihood needs both K⁻¹y and
// log det K).
func (f *Factorization) LogDet() float64 {
	h := f.h
	t := h.Tree
	var logdet float64
	for _, leaf := range t.Leaves() {
		logdet += linalg.LogDetFromCholesky(f.chol[leaf])
	}
	for id := range t.Nodes {
		if t.IsLeaf(id) {
			continue
		}
		var lu *linalg.LU
		if id == 0 {
			lu = f.luRt
		} else {
			lu = f.lu[id]
		}
		la, _ := lu.LogAbsDet()
		logdet += la
	}
	return logdet
}
