package hss

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/spdmat"
)

// TestSolveBitsGolden pins the SHA-256 of SolveCtx outputs at widths 1 and
// 8 and the bits of LogDet for the K02 PDE Hessian at n = 2025, compressed
// with the bench's hessian-direct knobs (τ = 1e-10, budget 0, no caching,
// Dynamic with two workers) and converted with FromGOFMM. Where the
// factorization and the solve take their scratch must not move these
// bits. The compression's rounding follows the AVX2+FMA kernels, so the
// test skips without them.
func TestSolveBitsGolden(t *testing.T) {
	if !linalg.AsmKernels() {
		t.Skip("solve bits are pinned for the AVX2+FMA kernels")
	}
	const (
		wantLogDet = uint64(0xc0b2a569acae48d3)
		wantX1     = "bc85ec8621d5c62415d1c87cc33e2f46cbb18f0aeb645fc14e83aa7362ee8f27"
		wantX8     = "08658fdb8a271aa03af8caf4a791343a108230e9b59182686e50777ca6e6fe74"
	)
	p, err := spdmat.Generate("K02", 2025, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.Compress(p.K, core.Config{
		LeafSize: 128, MaxRank: 128, Tol: 1e-10, Kappa: 32, Budget: 0,
		Distance: core.Angle, Exec: core.Dynamic, NumWorkers: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := FromGOFMM(g)
	if err != nil {
		t.Fatal(err)
	}
	f, err := h.FactorCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(f.LogDet()); got != wantLogDet {
		t.Errorf("LogDet bits %#x, want %#x", got, wantLogDet)
	}
	for _, c := range []struct {
		r    int
		want string
	}{{1, wantX1}, {8, wantX8}} {
		B := linalg.GaussianMatrix(rand.New(rand.NewSource(int64(c.r))), g.N(), c.r)
		X, err := f.SolveCtx(context.Background(), B)
		if err != nil {
			t.Fatal(err)
		}
		if got := bitsSHA256(X); got != c.want {
			t.Errorf("r=%d: solve SHA-256 %s, want %s", c.r, got, c.want)
		}
	}
}

// bitsSHA256 hashes a matrix's float64 bits, column by column.
func bitsSHA256(M *linalg.Matrix) string {
	d := sha256.New()
	var b [8]byte
	for j := 0; j < M.Cols; j++ {
		for _, v := range M.Col(j) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			d.Write(b[:])
		}
	}
	return hex.EncodeToString(d.Sum(nil))
}
