package gofmm

// Plan/tree equivalence wall. A compiled evaluation plan is a lowering of
// the four-pass traversal, not a reimplementation: for every fixture in the
// {angle, kernel} × {tol 1e-2, tol 1e-5, fixed-rank} grid the replayed
// result must agree with the tree interpreter to near-machine precision
// (1e-13 — far below any compression tolerance, because the two paths run
// the same block products and differ only in kernel accumulation order).
// Two metamorphic identities ride along through the compiled path:
// linearity (a plan is a fixed linear map) and column consistency (a width-r
// replay's columns equal width-1 replays, even though the two widths
// dispatch different kernels). The interpreter stays available after
// compilation — it is the test oracle here and everywhere.

import (
	"context"
	"math/rand"
	"testing"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
)

// planFixtures is the {distance} × {tolerance/mode} grid of the wall.
func planFixtures() []struct {
	name      string
	dist      core.Distance
	tol       float64
	fixedRank bool
} {
	return []struct {
		name      string
		dist      core.Distance
		tol       float64
		fixedRank bool
	}{
		{"angle/tol1e-2", core.Angle, 1e-2, false},
		{"angle/tol1e-5", core.Angle, 1e-5, false},
		{"angle/fixedrank", core.Angle, 0, true},
		{"kernel/tol1e-2", core.Kernel, 1e-2, false},
		{"kernel/tol1e-5", core.Kernel, 1e-5, false},
		{"kernel/fixedrank", core.Kernel, 0, true},
	}
}

// planCompress compresses, compiles the plan and verifies it installed.
func planCompress(t *testing.T, K *Matrix, dist core.Distance, tol float64, fixedRank bool) *Hierarchical {
	t.Helper()
	h := planOperator(t, K, dist, tol, fixedRank)
	if _, err := h.CompilePlan(); err != nil {
		t.Fatal(err)
	}
	if h.Plan() == nil {
		t.Fatal("CompilePlan did not install a plan")
	}
	return h
}

// planOperator compresses a fixture of the wall without compiling it.
func planOperator(t *testing.T, K *Matrix, dist core.Distance, tol float64, fixedRank bool) *Hierarchical {
	t.Helper()
	cfg := Config{
		LeafSize: 32, MaxRank: 48, Kappa: 8, Budget: 0.05,
		Distance: dist, Exec: core.Sequential, Seed: 3, CacheBlocks: true,
	}
	if fixedRank {
		// An unreachable tolerance saturates every node at MaxRank.
		cfg.Tol = 1e-12
		cfg.MaxRank = 24
	} else {
		cfg.Tol = tol
	}
	h, err := Compress(NewDense(K), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPlanMatchesInterpreter is the equivalence property: compiled replay
// and tree interpretation agree to 1e-13 on every fixture, at widths 1 and
// 6 (exercising both the GEMV and the GEMM replay kernels).
func TestPlanMatchesInterpreter(t *testing.T) {
	const n = 256
	K := randomSPD(n, 404)
	rng := rand.New(rand.NewSource(9))
	ctx := context.Background()
	for _, tc := range planFixtures() {
		t.Run(tc.name, func(t *testing.T) {
			// Until it compiles, the public path IS the interpreter.
			h := planOperator(t, K, tc.dist, tc.tol, tc.fixedRank)
			X := linalg.GaussianMatrix(rng, n, 2)
			ref, err := h.InterpMatmatCtx(ctx, X)
			if err != nil {
				t.Fatal(err)
			}
			got, err := h.MatmatCtx(ctx, X)
			if err != nil {
				t.Fatal(err)
			}
			if h.Plan() != nil || !bitIdentical(got, ref) {
				t.Error("before CompilePlan, Matmat is not the interpreter path")
			}
			if _, err := h.CompilePlan(); err != nil {
				t.Fatal(err)
			}
			for _, r := range []int{1, 6} {
				X := linalg.GaussianMatrix(rng, n, r)
				ref, err := h.InterpMatmatCtx(ctx, X)
				if err != nil {
					t.Fatal(err)
				}
				got, err := h.MatmatCtx(ctx, X)
				if err != nil {
					t.Fatal(err)
				}
				if d := linalg.RelFrobDiff(got, ref); d > 1e-13 {
					t.Errorf("r=%d: plan vs interpreter differ by %.3e", r, d)
				}
			}
		})
	}
}

// TestPlanLinearity is the metamorphic linearity identity through the
// compiled path: replay(a·x + b·y) = a·replay(x) + b·replay(y) to rounding.
func TestPlanLinearity(t *testing.T) {
	const n = 256
	K := randomSPD(n, 505)
	rng := rand.New(rand.NewSource(10))
	x := linalg.GaussianMatrix(rng, n, 1)
	y := linalg.GaussianMatrix(rng, n, 1)
	const a, b = 2.25, -0.59375 // exactly representable scalars
	ctx := context.Background()
	for _, tc := range planFixtures() {
		t.Run(tc.name, func(t *testing.T) {
			h := planCompress(t, K, tc.dist, tc.tol, tc.fixedRank)
			axby := linalg.NewMatrix(n, 1)
			for i := 0; i < n; i++ {
				axby.Set(i, 0, a*x.At(i, 0)+b*y.At(i, 0))
			}
			lhs, err := h.MatvecCtx(ctx, axby)
			if err != nil {
				t.Fatal(err)
			}
			ux, err := h.MatvecCtx(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			uy, err := h.MatvecCtx(ctx, y)
			if err != nil {
				t.Fatal(err)
			}
			scale := lhs.FrobeniusNorm() + 1
			for i := 0; i < n; i++ {
				d := lhs.At(i, 0) - (a*ux.At(i, 0) + b*uy.At(i, 0))
				if d < 0 {
					d = -d
				}
				if d > 1e-11*scale {
					t.Fatalf("linearity violated at row %d by %.3e (scale %.3e)", i, d, scale)
				}
			}
		})
	}
}

// TestPlanColumnConsistency is the metamorphic batching identity through
// the compiled path: column j of a width-r replay equals the width-1 replay
// of that column to 1e-13, even though width 1 dispatches the fused GEMV
// kernels and width r the GEMM kernels.
func TestPlanColumnConsistency(t *testing.T) {
	const n, r = 256, 5
	K := randomSPD(n, 606)
	rng := rand.New(rand.NewSource(11))
	X := linalg.GaussianMatrix(rng, n, r)
	ctx := context.Background()
	for _, tc := range planFixtures() {
		t.Run(tc.name, func(t *testing.T) {
			h := planCompress(t, K, tc.dist, tc.tol, tc.fixedRank)
			U, err := h.MatmatCtx(ctx, X)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < r; j++ {
				xj := linalg.NewMatrix(n, 1)
				copy(xj.Col(0), X.Col(j))
				uj, err := h.MatvecCtx(ctx, xj)
				if err != nil {
					t.Fatal(err)
				}
				scale := linalg.Nrm2(uj.Col(0)) + 1
				if d := maxAbsDiff(U.Col(j), uj.Col(0)); d > 1e-13*scale {
					t.Errorf("column %d: batched vs single-vector replay differ by %.3e", j, d)
				}
			}
		})
	}
}
