//go:build amd64 && !purego

package linalg

// AVX2+FMA GEMV micro-kernels, gated on the same haveFMAKernel probe as the
// GEMM tile kernel. All three operate on column-major storage addressed
// directly (base pointer + column stride in elements) and process exactly
// m rows, which callers round down to a multiple of 4; the ragged row tail
// is handled in Go.

// gemvCols8F64 accumulates y[0:m] += Σ_j coef[j]·a[j·lda : j·lda+m] over
// eight consecutive columns. Requires haveFMAKernel and m % 4 == 0.
//
//go:noescape
func gemvCols8F64(m int, a *float64, lda int, coef *float64, y *float64)

// gemvCols8F32 is gemvCols8F64 for float32 column storage: each 4-lane load
// is widened with VCVTPS2PD so the accumulation stays in float64, matching
// the scalar mixed-precision contract. Requires haveFMAKernel and m % 4 == 0.
//
//go:noescape
func gemvCols8F32(m int, a *float32, lda int, coef *float64, y *float64)

// gemvDots4F64 computes four column dot products
// dst[j] = a[j·lda : j·lda+m] · x[0:m] for j = 0..3 — the transposed-GEMV
// building block. Requires haveFMAKernel and m % 4 == 0.
//
//go:noescape
func gemvDots4F64(m int, a *float64, lda int, x *float64, dst *float64)

// gemvDots4F32 is gemvDots4F64 for float32 column storage, each 4-lane
// load widened with VCVTPS2PD; lda is in float32 elements. Requires
// haveFMAKernel and m % 4 == 0.
//
//go:noescape
func gemvDots4F32(m int, a *float32, lda int, x *float64, dst *float64)
