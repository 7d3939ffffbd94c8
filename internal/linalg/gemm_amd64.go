//go:build amd64 && !purego

package linalg

// haveFMAKernel reports whether the AVX2+FMA assembly micro-kernel is
// usable on this CPU. Go is built with GOAMD64=v1 by default, so the
// baseline compiler output is SSE2 scalar code; the hand-written kernel
// needs AVX2 (for 4-wide f64 vectors and VBROADCASTSD) and FMA, and the OS
// must have enabled YMM state saving (OSXSAVE + XCR0 bits 1:2).
var haveFMAKernel = detectFMAKernel()

func detectFMAKernel() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		cpuidFMA     = 1 << 12 // CPUID.1:ECX
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
		cpuidAVX2    = 1 << 5 // CPUID.(7,0):EBX
	)
	_, _, c, _ := cpuidex(1, 0)
	if c&cpuidFMA == 0 || c&cpuidOSXSAVE == 0 || c&cpuidAVX == 0 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	if b&cpuidAVX2 == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	return xcr0&6 == 6 // OS saves XMM and YMM state
}

//go:noescape
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// gemmKernel8x6 computes an 8×6 tile C += A·B: a points at kc 8-vectors of
// A spaced lda elements apart (lda = gemmMR for a packed panel, the block's
// column stride for a column-major A read in place), b at kc consecutive
// packed 6-vectors of B, c at C[0,0] of the tile, and ldc is C's column
// stride in elements. Requires haveFMAKernel.
//
//go:noescape
func gemmKernel8x6(kc int, a *float64, lda int, b, c *float64, ldc int)

// gemmKernel8x6F32 is gemmKernel8x6 for a float32 A, widened to float64 as
// it is loaded; lda is in float32 elements. Requires haveFMAKernel.
//
//go:noescape
func gemmKernel8x6F32(kc int, a *float32, lda int, b, c *float64, ldc int)

// gemmDots4x3F64 computes the twelve dot products dst[4j+i] = a_i · b_j of
// four columns a_i (a + i·lda) against three columns b_j (b + j·ldb), each
// k long: one tile of a transposed product Aᵀ·B read in place. Requires
// haveFMAKernel and k % 4 == 0.
//
//go:noescape
func gemmDots4x3F64(k int, a *float64, lda int, b *float64, ldb int, dst *float64)

// gemmDots4x3F32 is gemmDots4x3F64 for a float32 A, widened to float64 as
// it is loaded; lda is in float32 elements. Requires haveFMAKernel and
// k % 4 == 0.
//
//go:noescape
func gemmDots4x3F32(k int, a *float32, lda int, b *float64, ldb int, dst *float64)
