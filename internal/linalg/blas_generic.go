//go:build !amd64 || purego

package linalg

// Portable builds never reach the level-1 kernels: every call site is
// gated on haveFMAKernel, which is constant false here (see gemm_generic.go).

func axpyF64(n int, alpha float64, x, y *float64) {
	panic("linalg: assembly kernel unavailable in this build")
}

func dotCols4(m int, a *float64, lda int, x *float64, dst *float64) {
	panic("linalg: assembly kernel unavailable in this build")
}
