package gofmm

// Metamorphic property-test harness for the batched evaluation path. The
// compressed operator K̃ is a fixed linear map once Compress returns, so
// three algebraic identities must hold regardless of tolerance or distance:
//
//	(a) batching is invisible: column j of Matmat(K̃, X) equals
//	    Matvec(K̃, x_j) to near-machine precision (the passes visit nodes in
//	    the same order and each GEMM column accumulates independently);
//	(b) linearity: K̃(a·x + b·y) = a·K̃x + b·K̃y;
//	(c) symmetry: ⟨K̃x, y⟩ = ⟨x, K̃y⟩ (K̃ = D + S + UV is symmetric by
//	    construction, so this holds to rounding — far below the compression
//	    tolerance).
//
// The harness sweeps {angle, kernel} × {adaptive, fixed-rank} over
// randomized SPD matrices, so a regression in any pass kernel or the
// batched entry point trips at least one identity.

import (
	"math"
	"math/rand"
	"testing"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
)

// randomSPD builds a well-conditioned random SPD matrix G·Gᵀ + n·I.
func randomSPD(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	G := linalg.GaussianMatrix(rng, n, n)
	K := linalg.MatMul(false, true, G, G)
	for i := 0; i < n; i++ {
		K.Add(i, i, float64(n))
	}
	return K
}

// propertyCases is the {distance} × {skeletonization mode} grid shared by
// all three metamorphic properties.
func propertyCases() []struct {
	name     string
	dist     core.Distance
	adaptive bool
} {
	return []struct {
		name     string
		dist     core.Distance
		adaptive bool
	}{
		{"angle/adaptive", core.Angle, true},
		{"angle/fixedrank", core.Angle, false},
		{"kernel/adaptive", core.Kernel, true},
		{"kernel/fixedrank", core.Kernel, false},
	}
}

func propertyCompress(t *testing.T, K *Matrix, dist core.Distance, adaptive bool) *Hierarchical {
	t.Helper()
	cfg := Config{
		LeafSize: 32, MaxRank: 48, Kappa: 8, Budget: 0.05,
		Distance: dist, Exec: core.Sequential, Seed: 3, CacheBlocks: true,
	}
	if adaptive {
		cfg.Tol = 1e-5
	} else {
		// Fixed-rank mode: an unreachable tolerance saturates every node at
		// MaxRank.
		cfg.Tol = 1e-12
		cfg.MaxRank = 24
	}
	h, err := Compress(NewDense(K), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// maxAbsDiff returns max_i |a_i − b_i|.
func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestPropertyMatmatMatchesMatvecColumns is property (a): batching must be
// invisible. Each column of a batched evaluation agrees with the
// single-vector evaluation of that column to 1e-13 (relative to the
// column's scale).
func TestPropertyMatmatMatchesMatvecColumns(t *testing.T) {
	const n, r = 256, 7
	K := randomSPD(n, 101)
	rng := rand.New(rand.NewSource(5))
	X := linalg.GaussianMatrix(rng, n, r)
	for _, tc := range propertyCases() {
		t.Run(tc.name, func(t *testing.T) {
			h := propertyCompress(t, K, tc.dist, tc.adaptive)
			U := h.Matmat(X)
			for j := 0; j < r; j++ {
				xj := linalg.NewMatrix(n, 1)
				copy(xj.Col(0), X.Col(j))
				uj := h.Matvec(xj)
				scale := linalg.Nrm2(uj.Col(0)) + 1
				if d := maxAbsDiff(U.Col(j), uj.Col(0)); d > 1e-13*scale {
					t.Errorf("column %d: batched vs single-vector differ by %.3e (scale %.3e)", j, d, scale)
				}
			}
		})
	}
}

// TestPropertyLinearity is property (b): K̃(a·x + b·y) = a·K̃x + b·K̃y.
// The two sides run the same kernels on different inputs, so they agree to
// rounding, far below the compression tolerance.
func TestPropertyLinearity(t *testing.T) {
	const n = 256
	K := randomSPD(n, 202)
	rng := rand.New(rand.NewSource(6))
	x := linalg.GaussianMatrix(rng, n, 1)
	y := linalg.GaussianMatrix(rng, n, 1)
	const a, b = 1.75, -0.3125 // exactly representable scalars
	for _, tc := range propertyCases() {
		t.Run(tc.name, func(t *testing.T) {
			h := propertyCompress(t, K, tc.dist, tc.adaptive)
			axby := linalg.NewMatrix(n, 1)
			for i := 0; i < n; i++ {
				axby.Set(i, 0, a*x.At(i, 0)+b*y.At(i, 0))
			}
			lhs := h.Matvec(axby)
			ux, uy := h.Matvec(x), h.Matvec(y)
			rhs := linalg.NewMatrix(n, 1)
			for i := 0; i < n; i++ {
				rhs.Set(i, 0, a*ux.At(i, 0)+b*uy.At(i, 0))
			}
			scale := lhs.FrobeniusNorm() + 1
			if d := maxAbsDiff(lhs.Col(0), rhs.Col(0)); d > 1e-11*scale {
				t.Errorf("linearity violated by %.3e (scale %.3e)", d, scale)
			}
		})
	}
}

// TestPropertySymmetry is property (c): ⟨K̃x, y⟩ = ⟨x, K̃y⟩. The compressed
// operator is symmetric by construction (the near list is symmetrized and
// far blocks come in transposed pairs), so the two inner products agree
// well within the compression tolerance.
func TestPropertySymmetry(t *testing.T) {
	const n = 256
	K := randomSPD(n, 303)
	rng := rand.New(rand.NewSource(7))
	x := linalg.GaussianMatrix(rng, n, 1)
	y := linalg.GaussianMatrix(rng, n, 1)
	for _, tc := range propertyCases() {
		t.Run(tc.name, func(t *testing.T) {
			h := propertyCompress(t, K, tc.dist, tc.adaptive)
			kx, ky := h.Matvec(x), h.Matvec(y)
			kxy := linalg.Dot(kx.Col(0), y.Col(0))
			xky := linalg.Dot(x.Col(0), ky.Col(0))
			// Compare against the magnitude of the inner products; the
			// compression tolerance (1e-5 adaptive, looser fixed-rank) is the
			// natural yardstick, with rounding far beneath it.
			scale := math.Max(math.Abs(kxy), math.Abs(xky)) + 1
			tol := 1e-5
			if !tc.adaptive {
				tol = 1e-3
			}
			if d := math.Abs(kxy - xky); d > tol*scale {
				t.Errorf("symmetry violated: <Kx,y>=%.12e vs <x,Ky>=%.12e (diff %.3e)", kxy, xky, d)
			}
		})
	}
}
