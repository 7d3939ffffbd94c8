package hss

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
)

// gauss2D builds a dense Gaussian kernel over 2-D points.
func gauss2D(rng *rand.Rand, n int, h float64) *linalg.Matrix {
	X := linalg.GaussianMatrix(rng, 2, n)
	K := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			d2 := 0.0
			for q := 0; q < 2; q++ {
				t := X.At(q, i) - X.At(q, j)
				d2 += t * t
			}
			K.Set(i, j, math.Exp(-d2/(2*h*h)))
		}
	}
	for i := 0; i < n; i++ {
		K.Add(i, i, 0.2)
	}
	return K
}

func TestFromGOFMMMatvecMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	K := gauss2D(rng, 400, 0.6)
	g, err := core.Compress(denseOracle{K}, core.Config{
		LeafSize: 64, MaxRank: 48, Tol: 1e-9, Kappa: 8, Budget: 0,
		Distance: core.Kernel, Exec: core.Sequential, Seed: 1, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := FromGOFMM(g)
	if err != nil {
		t.Fatal(err)
	}
	W := linalg.GaussianMatrix(rng, 400, 3)
	Ug := g.Matvec(W)
	Uh := h.Matvec(W)
	// Same compressed operator expressed two ways: results must agree to
	// rounding.
	if d := linalg.RelFrobDiff(Uh, Ug); d > 1e-11 {
		t.Fatalf("converted HSS matvec differs from GOFMM by %g", d)
	}
}

func TestFromGOFMMFactorSolve(t *testing.T) {
	// The headline combination: geometry-oblivious permutation + direct
	// solver. Compress with the kernel distance (permuted tree!), convert,
	// factor, and solve against the dense solution.
	rng := rand.New(rand.NewSource(141))
	n := 400
	K := gauss2D(rng, n, 0.6)
	g, err := core.Compress(denseOracle{K}, core.Config{
		LeafSize: 64, MaxRank: 64, Tol: 1e-11, Kappa: 8, Budget: 0,
		Distance: core.Kernel, Exec: core.Sequential, Seed: 2, CacheBlocks: true,
		SampleRows: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := FromGOFMM(g)
	if err != nil {
		t.Fatal(err)
	}
	f, err := h.Factor()
	if err != nil {
		t.Fatal(err)
	}
	X := linalg.GaussianMatrix(rng, n, 2)
	B := linalg.MatMul(false, false, K, X)
	got := f.Solve(B)
	// The error vs the dense solution is the compression error amplified by
	// cond(K).
	if d := linalg.RelFrobDiff(got, X); d > 1e-3 {
		t.Fatalf("solve error vs dense solution: %g", d)
	}
	// Exact inverse of the compressed operator.
	back := g.Matvec(got)
	if d := linalg.RelFrobDiff(back, B); d > 1e-8 {
		t.Fatalf("K̃·K̃⁻¹ b deviates by %g", d)
	}
}

func TestFromGOFMMRejectsFMMMode(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	K := gauss2D(rng, 300, 0.6)
	g, err := core.Compress(denseOracle{K}, core.Config{
		LeafSize: 64, MaxRank: 32, Tol: 1e-6, Kappa: 8, Budget: 0.3,
		Distance: core.Kernel, Exec: core.Sequential, Seed: 3, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromGOFMM(g); !errors.Is(err, ErrNotHSS) {
		t.Fatalf("expected ErrNotHSS, got %v", err)
	}
}

// TestConcurrentSolves runs 8 goroutines × 5 solves on one factorization,
// as gofmmd's solve endpoint does, and requires each output to match a
// serial solve of the same right-hand side bit for bit: every call owns
// its scratch, and the factors are only read.
func TestConcurrentSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	n := 400
	g, err := core.Compress(denseOracle{gauss2D(rng, n, 0.6)}, core.Config{
		LeafSize: 64, MaxRank: 64, Tol: 1e-11, Kappa: 8, Budget: 0,
		Distance: core.Kernel, Exec: core.Sequential, Seed: 2, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := FromGOFMM(g)
	if err != nil {
		t.Fatal(err)
	}
	f, err := h.Factor()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, solves = 8, 5
	rhs := make([]*linalg.Matrix, solves)
	want := make([]string, solves)
	for k := range rhs {
		rhs[k] = linalg.GaussianMatrix(rng, n, 1+k%3)
		want[k] = bitsSHA256(f.Solve(rhs[k]))
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < solves; i++ {
				k := (w + i) % solves
				X, err := f.SolveCtx(ctx, rhs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if bitsSHA256(X) != want[k] {
					t.Errorf("goroutine %d: solve of rhs %d differs from the serial solve", w, k)
				}
			}
		}()
	}
	wg.Wait()
}
