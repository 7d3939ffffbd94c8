package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkConstOperand times the kernels a compiled-plan replay can run on
// one constant block, at plan-record shapes: a 128×128 block (an L2L block,
// or a full-rank basis at leaf size 128) and a 40×80 one (an interior basis
// at rank 40 over two rank-40 children, or an S2S block), in both
// precisions. "inplace" is the 8×6 micro-kernel reading A where it lies,
// "gemv" the width-1 GEMV kernel once per column. The "T" rows apply the
// same stored block transposed, as an S2N record or a mirrored near or far
// block does: "inplace" is then the 4×3 dot-product tile, and "packed"
// Gemm's packed path. gemmConstMinWidth and gemmConstMinWidthT are read off
// these numbers.
func BenchmarkConstOperand(b *testing.B) {
	if !haveFMAKernel {
		b.Skip("needs the AVX2+FMA kernels")
	}
	for _, sh := range [][2]int{{128, 128}, {40, 80}} {
		m, k := sh[0], sh[1]
		rng := rand.New(rand.NewSource(1))
		A := GaussianMatrix(rng, m, k)
		A32 := ToMatrix32(A)
		for _, r := range []int{1, 2, 3, 4, 5, 8, 16} {
			B, C := GaussianMatrix(rng, k, r), NewMatrix(m, r)
			Bt, Ct := GaussianMatrix(rng, m, r), NewMatrix(k, r)
			run := func(name string, f func()) {
				b.Run(fmt.Sprintf("%dx%d/r%d/%s", m, k, r, name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						f()
					}
					b.ReportMetric(2*float64(m*k*r)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
				})
			}
			run("f64/inplace", func() { C.Zero(); gemmInPlace(1, A, nil, B, C) })
			run("f64/gemv", func() {
				for j := 0; j < r; j++ {
					Gemv(false, 1, A, B.Col(j), 0, C.Col(j))
				}
			})
			run("f32/inplace", func() { C.Zero(); gemmInPlace(1, nil, A32, B, C) })
			run("f32/gemv", func() {
				for j := 0; j < r; j++ {
					GemvMixed(false, 1, A32, B.Col(j), 0, C.Col(j))
				}
			})
			run("f64T/inplace", func() { Ct.Zero(); gemmInPlaceT(1, A, nil, Bt, Ct) })
			run("f64T/packed", func() { Ct.Zero(); gemmPacked(true, false, 1, A, Bt, Ct, k, r, m) })
			run("f64T/gemv", func() {
				for j := 0; j < r; j++ {
					Gemv(true, 1, A, Bt.Col(j), 0, Ct.Col(j))
				}
			})
			run("f32T/inplace", func() { Ct.Zero(); gemmInPlaceT(1, nil, A32, Bt, Ct) })
			run("f32T/gemv", func() {
				for j := 0; j < r; j++ {
					GemvMixed(true, 1, A32, Bt.Col(j), 0, Ct.Col(j))
				}
			})
		}
	}
}
