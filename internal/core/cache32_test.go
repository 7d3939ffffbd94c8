package core

import (
	"context"
	"math/rand"
	"testing"

	"gofmm/internal/linalg"
)

func TestSinglePrecisionCacheAccuracyAndMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	n := 400
	Kd, _ := gaussKernelMatrix(rng, n, 0.8)
	W := linalg.GaussianMatrix(rng, n, 3)
	exact := linalg.MatMul(false, false, Kd, W)
	base := Config{
		LeafSize: 32, MaxRank: 24, Tol: 1e-8, Kappa: 8, Budget: 0.15,
		Distance: Kernel, Exec: Sequential, Seed: 161, CacheBlocks: true,
	}
	h64, err := Compress(denseSPD{Kd}, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg32 := base
	cfg32.CacheSingle = true
	h32, err := Compress(denseSPD{Kd}, cfg32)
	if err != nil {
		t.Fatal(err)
	}
	U64 := h64.Matvec(W)
	U32 := h32.Matvec(W)
	e64 := linalg.RelFrobDiff(U64, exact)
	e32 := linalg.RelFrobDiff(U32, exact)
	// fp32 storage adds at most a ~1e-7 floor.
	if e32 > e64+1e-6 {
		t.Fatalf("fp32 cache degraded accuracy too much: %g vs %g", e32, e64)
	}
	if e32 < 1e-12 && e64 < 1e-12 {
		t.Log("both errors at machine floor; memory check still applies")
	}
	// The cached blocks dominate memory, so fp32 storage must shrink the
	// footprint substantially.
	b64, b32 := h64.CompressedBytes(), h32.CompressedBytes()
	if float64(b32) > 0.75*float64(b64) {
		t.Fatalf("fp32 cache saved too little: %d vs %d bytes", b32, b64)
	}
	// MatvecInto must honor the fp32 cache on both engines: bit-identical
	// to Matvec when interpreted, within replay rounding when compiled.
	Uin := linalg.NewMatrix(n, 3)
	if err := h32.MatvecInto(context.Background(), W, Uin); err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(Uin, U32, 0) {
		t.Fatal("interpreted MatvecInto fp32 path differs from Matvec")
	}
	if _, err := h32.CompilePlan(); err != nil {
		t.Fatal(err)
	}
	if err := h32.MatvecInto(context.Background(), W, Uin); err != nil {
		t.Fatal(err)
	}
	if d := linalg.RelFrobDiff(Uin, U32); d > 1e-13 {
		t.Fatalf("compiled MatvecInto fp32 path differs from Matvec by %g", d)
	}
}

func TestGemmMixedMatchesWidened(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	A := linalg.GaussianMatrix(rng, 20, 15)
	A32 := linalg.ToMatrix32(A)
	B := linalg.GaussianMatrix(rng, 15, 4)
	C1 := linalg.GaussianMatrix(rng, 20, 4)
	C2 := C1.Clone()
	linalg.GemmMixed(false, 2, A32, B, 0.5, C1)
	linalg.Gemm(false, false, 2, A32.ToMatrix(), B, 0.5, C2)
	if !linalg.EqualApprox(C1, C2, 1e-12) {
		t.Fatal("GemmMixed differs from widened Gemm")
	}
}
