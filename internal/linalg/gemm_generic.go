//go:build !amd64 || purego

package linalg

// Non-amd64 platforms — and any platform under the purego tag — always
// take the portable micro-kernel.
const haveFMAKernel = false

func gemmKernel8x6(kc int, a *float64, lda int, b, c *float64, ldc int) {
	panic("linalg: assembly micro-kernel unavailable in this build")
}

func gemmKernel8x6F32(kc int, a *float32, lda int, b, c *float64, ldc int) {
	panic("linalg: assembly micro-kernel unavailable in this build")
}

func gemmDots4x3F64(k int, a *float64, lda int, b *float64, ldb int, dst *float64) {
	panic("linalg: assembly micro-kernel unavailable in this build")
}

func gemmDots4x3F32(k int, a *float32, lda int, b *float64, ldb int, dst *float64) {
	panic("linalg: assembly micro-kernel unavailable in this build")
}
