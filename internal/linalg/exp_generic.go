//go:build !amd64 || purego

package linalg

// Portable builds never reach the exp kernel: ExpInPlace gates it on
// haveFMAKernel, which is constant false here (see gemm_generic.go).

func expKernel(n int, x *float64) int {
	panic("linalg: assembly kernel unavailable in this build")
}
