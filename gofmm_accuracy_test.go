package gofmm

// End-to-end accuracy regression: a golden table of matvec error across the
// two geometry-oblivious distances, two tolerances and the adaptive vs
// fixed-rank skeletonization modes. The bounds are upper bounds with ~10×
// headroom over measured values — they catch a kernel or compression
// regression that degrades accuracy, not run-to-run noise. The same table
// doubles as the pooled-correctness gate: attaching a workspace pool (and
// evaluating into a caller-owned output with MatvecInto, interpreted and
// compiled) must reproduce the unpooled result, because pooling only
// changes where buffers come from, never which kernels run or in what
// order.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gofmm/internal/core"
	"gofmm/internal/experiments"
	"gofmm/internal/linalg"
)

// relFrobErr returns ‖U−V‖_F / ‖V‖_F.
func relFrobErr(U, V *linalg.Matrix) float64 {
	var num, den float64
	for c := 0; c < V.Cols; c++ {
		u, v := U.Col(c), V.Col(c)
		for i := range v {
			d := u[i] - v[i]
			num += d * d
			den += v[i] * v[i]
		}
	}
	return math.Sqrt(num / den)
}

func TestAccuracyGoldenTable(t *testing.T) {
	const n = 512
	cases := []struct {
		name     string
		dist     core.Distance
		tol      float64
		maxRank  int
		adaptive bool
		// maxErr is the golden bound on the relative Frobenius error of the
		// compressed matvec against the exact dense product.
		maxErr float64
	}{
		{"angle/tol1e-2/adaptive", core.Angle, 1e-2, 128, true, 3e-2},
		{"angle/tol1e-5/adaptive", core.Angle, 1e-5, 128, true, 1e-4},
		{"angle/tol1e-2/fixedrank", core.Angle, 1e-2, 16, false, 5e-2},
		{"angle/tol1e-5/fixedrank", core.Angle, 1e-5, 64, false, 1e-4},
		{"kernel/tol1e-2/adaptive", core.Kernel, 1e-2, 128, true, 3e-2},
		{"kernel/tol1e-5/adaptive", core.Kernel, 1e-5, 128, true, 1e-4},
		{"kernel/tol1e-2/fixedrank", core.Kernel, 1e-2, 16, false, 5e-2},
		{"kernel/tol1e-5/fixedrank", core.Kernel, 1e-5, 64, false, 1e-4},
	}
	p := experiments.GetProblem("K02", n, 1)
	rng := rand.New(rand.NewSource(11))
	W := linalg.GaussianMatrix(rng, p.K.Dim(), 8)
	exact := core.ExactMatvec(p.K, W)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{
				LeafSize: 64, MaxRank: tc.maxRank, Kappa: 16, Budget: 0.03,
				Distance: tc.dist, Exec: core.Sequential, Seed: 1,
				CacheBlocks: true,
			}
			if tc.adaptive {
				cfg.Tol = tc.tol
			} else {
				// Fixed-rank mode: a tolerance far below what MaxRank can
				// deliver makes every node saturate at rank s.
				cfg.Tol = 1e-12
			}
			h, err := core.Compress(p.K, cfg)
			if err != nil {
				t.Fatal(err)
			}
			U := h.Matvec(W)
			eps := relFrobErr(U, exact)
			t.Logf("%s: rel err %.3e (bound %.0e, avg rank %.1f)", tc.name, eps, tc.maxErr, h.Stats.AvgRank)
			if eps > tc.maxErr {
				t.Errorf("relative error %.3e exceeds golden bound %.0e", eps, tc.maxErr)
			}
			if math.IsNaN(eps) || math.IsInf(eps, 0) {
				t.Fatalf("non-finite error %v", eps)
			}

			// Pooled paths must agree with the unpooled result to 1e-14
			// relative — same kernels, same order, different buffer source.
			h.Cfg.Workspace = NewWorkspacePool()
			scale := linalg.Nrm2(exact.Data)
			Up := h.Matvec(W)
			if d := maxAbsDiffMat(U, Up); d > 1e-14*scale {
				t.Errorf("pooled Matvec deviates from unpooled by %.3e (allow %.3e)", d, 1e-14*scale)
			}
			Ue := linalg.NewMatrix(W.Rows, W.Cols)
			if err := h.MatvecInto(context.Background(), W, Ue); err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiffMat(U, Ue); d > 1e-14*scale {
				t.Errorf("pooled MatvecInto deviates from unpooled by %.3e (allow %.3e)", d, 1e-14*scale)
			}
			// The compiled replay reorders no accumulation but writes with
			// beta 0 where the interpreter zeroes and adds: equal to rounding.
			if _, err := h.CompilePlan(); err != nil {
				t.Fatal(err)
			}
			if err := h.MatvecInto(context.Background(), W, Ue); err != nil {
				t.Fatal(err)
			}
			if d := relFrobErr(Ue, U); d > 1e-13 {
				t.Errorf("pooled compiled MatvecInto deviates from unpooled by %.3e (allow 1e-13)", d)
			}
		})
	}
}

func maxAbsDiffMat(A, B *linalg.Matrix) float64 {
	var m float64
	for c := 0; c < A.Cols; c++ {
		a, b := A.Col(c), B.Col(c)
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > m {
				m = d
			}
		}
	}
	return m
}
