package gofmm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"gofmm/internal/linalg"
	"gofmm/krylov"
	"gofmm/testmat"
)

// Compile-time checks: the public types satisfy the krylov contracts.
var (
	_ krylov.Operator       = (*Hierarchical)(nil)
	_ krylov.Preconditioner = (*Factorization)(nil)
)

func TestFactorThroughPublicAPI(t *testing.T) {
	p, err := testmat.Generate("K02", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	H, err := Compress(p.K, Config{
		LeafSize: 64, MaxRank: 64, Tol: 1e-9, Budget: 0,
		Distance: Angle, Exec: Sequential, Seed: 1, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	F, err := Factor(H)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b := linalg.GaussianMatrix(rng, p.K.Dim(), 2)
	x := F.Solve(b)
	back := H.Matvec(x)
	if d := linalg.RelFrobDiff(back, b); d > 1e-8 {
		t.Fatalf("Factor/Solve inconsistent with Matvec: %g", d)
	}
}

func TestFactorRejectsFMMMode(t *testing.T) {
	p, err := testmat.Generate("K05", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	H, err := Compress(p.K, Config{
		LeafSize: 64, MaxRank: 32, Tol: 1e-5, Budget: 0.2,
		Distance: Angle, Exec: Sequential, Seed: 1, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Factor(H); !errors.Is(err, ErrNotHSS) {
		t.Fatalf("expected ErrNotHSS, got %v", err)
	}
}

func TestSaveLoadThroughPublicAPI(t *testing.T) {
	p, err := testmat.Generate("K09", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	H, err := Compress(p.K, Config{
		LeafSize: 64, MaxRank: 32, Tol: 1e-6, Budget: 0.1,
		Distance: Kernel, Exec: Sequential, Seed: 2, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(H, &buf); err != nil {
		t.Fatal(err)
	}
	H2, err := Load(bytes.NewReader(buf.Bytes()), p.K)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	W := linalg.GaussianMatrix(rng, p.K.Dim(), 2)
	if !linalg.EqualApprox(H.Matvec(W), H2.Matvec(W), 0) {
		t.Fatal("loaded form gives a different matvec")
	}
	// A cached operator also loads oracle-free, bit for bit.
	H3, err := Load(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if H3.HasOracle() || !linalg.EqualApprox(H.Matvec(W), H3.Matvec(W), 0) {
		t.Fatal("oracle-free load differs")
	}
	wrong, err := testmat.Generate("K09", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), wrong.K); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("wrong-dimension oracle: got %v, want ErrInvalidInput", err)
	}
}

func TestCountingThroughPublicAPI(t *testing.T) {
	p, err := testmat.Generate("K10", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounting(p.K)
	if _, err := Compress(c, Config{
		LeafSize: 32, MaxRank: 16, Tol: 1e-5, Budget: 0.05,
		Distance: Kernel, Exec: Sequential, Seed: 3, CacheBlocks: true,
	}); err != nil {
		t.Fatal(err)
	}
	if c.Count() == 0 {
		t.Fatal("no entries counted during compression")
	}
	// At N=200 the per-leaf constants dominate (the scaling test lives in
	// internal/core); just bound the blow-up.
	if c.Count() >= int64(200*200*10) {
		t.Fatalf("compression touched %d entries (10× N²)", c.Count())
	}
}

func TestKrylovOverCompressedOperator(t *testing.T) {
	// End-to-end: CG over the compressed matvec preconditioned by the
	// hierarchical factorization of the same operator converges instantly.
	p, err := testmat.Generate("K02", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	H, err := Compress(p.K, Config{
		LeafSize: 64, MaxRank: 64, Tol: 1e-10, Budget: 0,
		Distance: Angle, Exec: Sequential, Seed: 1, CacheBlocks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	F, err := Factor(H)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b := make([]float64, p.K.Dim())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	_, res, err := krylov.CG(H, F, b, 1e-10, 10)
	if err != nil {
		t.Fatalf("preconditioned CG failed: %v (res %+v)", err, res)
	}
	if res.Iterations > 2 {
		t.Fatalf("exact preconditioner took %d iterations", res.Iterations)
	}
	evs := krylov.Lanczos(H, 10, 5)
	if evs[0] <= 0 {
		t.Fatalf("largest Ritz value %g for an SPD operator", evs[0])
	}
}
