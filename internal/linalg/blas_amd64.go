//go:build amd64 && !purego

package linalg

// AVX level-1 kernels behind Axpy and the pivoted-QR trailing update. They
// multiply and add as separate roundings (VMULPD then VADDPD, never FMA),
// so they reproduce the Go loops of Axpy and Dot bit for bit under the
// default GOAMD64=v1 build, whose compiler output never fuses either. Both
// need only AVX but share the haveFMAKernel probe with the GEMM kernels.

// axpyF64 computes y[0:n] += alpha·x[0:n], element for element as Axpy's
// loop does. x and y must not overlap unless they are the same slice.
// Requires haveFMAKernel and n % 4 == 0.
//
//go:noescape
func axpyF64(n int, alpha float64, x, y *float64)

// dotCols4 computes the four-lane part of Dot for four columns:
// dst[j] = ((s0+s1)+s2)+s3, where lane s_l sums x[i]·col_j[i] over the rows
// i ≡ l (mod 4) of [0, m) in row order and col_j starts at a + j·lda.
// Adding Dot's scalar tail for the rows past m completes Dot(x, col_j)
// exactly. Requires haveFMAKernel and m % 4 == 0.
//
//go:noescape
func dotCols4(m int, a *float64, lda int, x *float64, dst *float64)
