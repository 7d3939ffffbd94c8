//go:build !amd64 || purego

package linalg

// Portable builds never reach the GEMV micro-kernels: every call site is
// gated on haveFMAKernel, which is constant false here (see gemm_generic.go).

func gemvCols8F64(m int, a *float64, lda int, coef *float64, y *float64, pf *float64) {
	panic("linalg: assembly micro-kernel unavailable in this build")
}

func gemvCols8F32(m int, a *float32, lda int, coef *float64, y *float64, pf *float32) {
	panic("linalg: assembly micro-kernel unavailable in this build")
}

func gemvDots4F64(m int, a *float64, lda int, x *float64, dst *float64, pf *float64) {
	panic("linalg: assembly micro-kernel unavailable in this build")
}

func gemvDots4F32(m int, a *float32, lda int, x *float64, dst *float64, pf *float32) {
	panic("linalg: assembly micro-kernel unavailable in this build")
}

func readStream(n int, p *byte) {
	panic("linalg: assembly micro-kernel unavailable in this build")
}
