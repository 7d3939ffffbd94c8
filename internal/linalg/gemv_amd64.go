//go:build amd64 && !purego

package linalg

// AVX2+FMA GEMV micro-kernels, gated on the same haveFMAKernel probe as the
// GEMM tile kernel. All six operate on column-major storage addressed
// directly (base pointer + column stride in elements) and process exactly
// m rows, which callers round down to a multiple of 4; the ragged row tail
// is handled in Go. Each also takes pf, the start of the panel the caller
// reads next (gemvNextPanel), and hints width·(m&^7) consecutive elements
// from it with PREFETCHT0, one cache line per 64 bytes each 8-row step
// loads, so a block streamed from DRAM keeps the next panel in flight.

// gemvCols8F64 accumulates y[0:m] += Σ_j coef[j]·a[j·lda : j·lda+m] over
// eight consecutive columns, hinting 8·(m&^7) elements from pf. Requires
// haveFMAKernel and m % 4 == 0.
//
//go:noescape
func gemvCols8F64(m int, a *float64, lda int, coef *float64, y *float64, pf *float64)

// gemvCols8F32 is gemvCols8F64 for float32 column storage: each 4-lane load
// is widened with VCVTPS2PD so the accumulation stays in float64, matching
// the scalar mixed-precision contract. Requires haveFMAKernel and m % 4 == 0.
//
//go:noescape
func gemvCols8F32(m int, a *float32, lda int, coef *float64, y *float64, pf *float32)

// gemvDots4F64 computes four column dot products
// dst[j] = a[j·lda : j·lda+m] · x[0:m] for j = 0..3 — the transposed-GEMV
// building block, hinting 4·(m&^7) elements from pf. Requires haveFMAKernel
// and m % 4 == 0.
//
//go:noescape
func gemvDots4F64(m int, a *float64, lda int, x *float64, dst *float64, pf *float64)

// gemvDots4F32 is gemvDots4F64 for float32 column storage, each 4-lane
// load widened with VCVTPS2PD; lda is in float32 elements. Requires
// haveFMAKernel and m % 4 == 0.
//
//go:noescape
func gemvDots4F32(m int, a *float32, lda int, x *float64, dst *float64, pf *float32)

// gemvPair4F64 applies four consecutive columns col_j = a[j·lda : j·lda+m]
// both ways in one read: y[0:m] += Σ_j coef[j]·col_j and dst[j] = col_j ·
// x[0:m], j = 0..3 — the forward and the mirror half of a stored symmetric
// pair. The dot sums are gemvDots4F64's bit for bit; it hints 4·(m&^7)
// elements from pf, as gemvDots4F64 does. y must not overlap a, x or dst.
// Requires haveFMAKernel and m % 4 == 0.
//
//go:noescape
func gemvPair4F64(m int, a *float64, lda int, coef *float64, y *float64, x *float64, dst *float64, pf *float64)

// gemvPair4F32 is gemvPair4F64 for float32 column storage, each 4-lane
// load widened once with VCVTPS2PD and fed to both products; lda is in
// float32 elements. Requires haveFMAKernel and m % 4 == 0.
//
//go:noescape
func gemvPair4F32(m int, a *float32, lda int, coef *float64, y *float64, x *float64, dst *float64, pf *float32)

// readStream reads n bytes from p with 32-byte loads and discards them: the
// plain-read ceiling of BenchmarkGemvStream. Requires haveFMAKernel (for
// AVX2) and n a positive multiple of 128.
//
//go:noescape
func readStream(n int, p *byte)
