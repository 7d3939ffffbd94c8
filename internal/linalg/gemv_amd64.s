//go:build amd64 && !purego

#include "textflag.h"

// func gemvCols8F64(m int, a *float64, lda int, coef *float64, y *float64, pf *float64)
//
// y[0:m] += Σ_{j<8} coef[j]·col_j with col_j starting at a + j·lda. The
// eight coefficients live broadcast in Y8–Y15 for the whole call. The main
// loop covers 8 rows per iteration with two accumulator pairs (Y0/Y1 seeded
// from y, Y4/Y5 zeroed) so the eight FMAs per y vector split into two
// four-deep dependency chains. Columns are addressed through scaled modes
// off the stride: R9 = lda·8 bytes, R10 = 3·R9, R11 = 5·R9, R12 = 7·R9
// reach all eight columns without per-column pointers. m must be a multiple
// of 4 (callers pass m &^ 3 and finish ragged rows in Go).
//
// Prefetch: each 8-row step loads 512 bytes of the panel and hints the
// eight consecutive cache lines at R8 = pf, which then advances 512 bytes,
// so over the call the hints cover 8·(m&^7) elements from pf — the next
// panel of a column-major block, fetched while this one is read. A hint
// cannot fault, but the caller still keeps the span inside the block
// (gemvNextPanel). The 4-row tail hints nothing.
TEXT ·gemvCols8F64(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R9
	SHLQ $3, R9
	MOVQ coef+24(FP), DX
	MOVQ y+32(FP), DI
	MOVQ pf+40(FP), R8

	VBROADCASTSD (DX), Y8
	VBROADCASTSD 8(DX), Y9
	VBROADCASTSD 16(DX), Y10
	VBROADCASTSD 24(DX), Y11
	VBROADCASTSD 32(DX), Y12
	VBROADCASTSD 40(DX), Y13
	VBROADCASTSD 48(DX), Y14
	VBROADCASTSD 56(DX), Y15

	LEAQ (R9)(R9*2), R10
	LEAQ (R9)(R9*4), R11
	LEAQ (R10)(R9*4), R12

	CMPQ CX, $8
	JLT  tail4

loop8:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5

	PREFETCHT0  (R8)
	VMOVUPD     (SI), Y2
	VMOVUPD     32(SI), Y3
	VFMADD231PD Y2, Y8, Y0
	VFMADD231PD Y3, Y8, Y1
	PREFETCHT0  64(R8)
	VMOVUPD     (SI)(R9*1), Y6
	VMOVUPD     32(SI)(R9*1), Y7
	VFMADD231PD Y6, Y9, Y4
	VFMADD231PD Y7, Y9, Y5
	PREFETCHT0  128(R8)
	VMOVUPD     (SI)(R9*2), Y2
	VMOVUPD     32(SI)(R9*2), Y3
	VFMADD231PD Y2, Y10, Y0
	VFMADD231PD Y3, Y10, Y1
	PREFETCHT0  192(R8)
	VMOVUPD     (SI)(R10*1), Y6
	VMOVUPD     32(SI)(R10*1), Y7
	VFMADD231PD Y6, Y11, Y4
	VFMADD231PD Y7, Y11, Y5
	PREFETCHT0  256(R8)
	VMOVUPD     (SI)(R9*4), Y2
	VMOVUPD     32(SI)(R9*4), Y3
	VFMADD231PD Y2, Y12, Y0
	VFMADD231PD Y3, Y12, Y1
	PREFETCHT0  320(R8)
	VMOVUPD     (SI)(R11*1), Y6
	VMOVUPD     32(SI)(R11*1), Y7
	VFMADD231PD Y6, Y13, Y4
	VFMADD231PD Y7, Y13, Y5
	PREFETCHT0  384(R8)
	VMOVUPD     (SI)(R10*2), Y2
	VMOVUPD     32(SI)(R10*2), Y3
	VFMADD231PD Y2, Y14, Y0
	VFMADD231PD Y3, Y14, Y1
	PREFETCHT0  448(R8)
	VMOVUPD     (SI)(R12*1), Y6
	VMOVUPD     32(SI)(R12*1), Y7
	VFMADD231PD Y6, Y15, Y4
	VFMADD231PD Y7, Y15, Y5

	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)

	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $512, R8
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  loop8

tail4:
	CMPQ CX, $4
	JLT  done

	VMOVUPD     (DI), Y0
	VXORPD      Y4, Y4, Y4
	VMOVUPD     (SI), Y2
	VFMADD231PD Y2, Y8, Y0
	VMOVUPD     (SI)(R9*1), Y3
	VFMADD231PD Y3, Y9, Y4
	VMOVUPD     (SI)(R9*2), Y2
	VFMADD231PD Y2, Y10, Y0
	VMOVUPD     (SI)(R10*1), Y3
	VFMADD231PD Y3, Y11, Y4
	VMOVUPD     (SI)(R9*4), Y2
	VFMADD231PD Y2, Y12, Y0
	VMOVUPD     (SI)(R11*1), Y3
	VFMADD231PD Y3, Y13, Y4
	VMOVUPD     (SI)(R10*2), Y2
	VFMADD231PD Y2, Y14, Y0
	VMOVUPD     (SI)(R12*1), Y3
	VFMADD231PD Y3, Y15, Y4
	VADDPD      Y4, Y0, Y0
	VMOVUPD     Y0, (DI)

done:
	VZEROUPPER
	RET

// func gemvCols8F32(m int, a *float32, lda int, coef *float64, y *float64, pf *float32)
//
// Mixed-precision variant of gemvCols8F64: the columns hold float32, so
// every 4-lane load is a VCVTPS2PD widening straight into the float64 FMA.
// Structure and register roles are identical; the stride scale is 4 bytes
// and the A pointer advances 32 bytes per 8 rows. Each 8-row step loads
// 256 bytes of the panel, so it hints four cache lines at R8 = pf and
// advances R8 by 256: again 8·(m&^7) elements from pf over the call.
TEXT ·gemvCols8F32(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R9
	SHLQ $2, R9
	MOVQ coef+24(FP), DX
	MOVQ y+32(FP), DI
	MOVQ pf+40(FP), R8

	VBROADCASTSD (DX), Y8
	VBROADCASTSD 8(DX), Y9
	VBROADCASTSD 16(DX), Y10
	VBROADCASTSD 24(DX), Y11
	VBROADCASTSD 32(DX), Y12
	VBROADCASTSD 40(DX), Y13
	VBROADCASTSD 48(DX), Y14
	VBROADCASTSD 56(DX), Y15

	LEAQ (R9)(R9*2), R10
	LEAQ (R9)(R9*4), R11
	LEAQ (R10)(R9*4), R12

	CMPQ CX, $8
	JLT  f32tail4

f32loop8:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5

	PREFETCHT0  (R8)
	VCVTPS2PD   (SI), Y2
	VCVTPS2PD   16(SI), Y3
	VFMADD231PD Y2, Y8, Y0
	VFMADD231PD Y3, Y8, Y1
	VCVTPS2PD   (SI)(R9*1), Y6
	VCVTPS2PD   16(SI)(R9*1), Y7
	VFMADD231PD Y6, Y9, Y4
	VFMADD231PD Y7, Y9, Y5
	PREFETCHT0  64(R8)
	VCVTPS2PD   (SI)(R9*2), Y2
	VCVTPS2PD   16(SI)(R9*2), Y3
	VFMADD231PD Y2, Y10, Y0
	VFMADD231PD Y3, Y10, Y1
	VCVTPS2PD   (SI)(R10*1), Y6
	VCVTPS2PD   16(SI)(R10*1), Y7
	VFMADD231PD Y6, Y11, Y4
	VFMADD231PD Y7, Y11, Y5
	PREFETCHT0  128(R8)
	VCVTPS2PD   (SI)(R9*4), Y2
	VCVTPS2PD   16(SI)(R9*4), Y3
	VFMADD231PD Y2, Y12, Y0
	VFMADD231PD Y3, Y12, Y1
	VCVTPS2PD   (SI)(R11*1), Y6
	VCVTPS2PD   16(SI)(R11*1), Y7
	VFMADD231PD Y6, Y13, Y4
	VFMADD231PD Y7, Y13, Y5
	PREFETCHT0  192(R8)
	VCVTPS2PD   (SI)(R10*2), Y2
	VCVTPS2PD   16(SI)(R10*2), Y3
	VFMADD231PD Y2, Y14, Y0
	VFMADD231PD Y3, Y14, Y1
	VCVTPS2PD   (SI)(R12*1), Y6
	VCVTPS2PD   16(SI)(R12*1), Y7
	VFMADD231PD Y6, Y15, Y4
	VFMADD231PD Y7, Y15, Y5

	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)

	ADDQ $32, SI
	ADDQ $64, DI
	ADDQ $256, R8
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  f32loop8

f32tail4:
	CMPQ CX, $4
	JLT  f32done

	VMOVUPD     (DI), Y0
	VXORPD      Y4, Y4, Y4
	VCVTPS2PD   (SI), Y2
	VFMADD231PD Y2, Y8, Y0
	VCVTPS2PD   (SI)(R9*1), Y3
	VFMADD231PD Y3, Y9, Y4
	VCVTPS2PD   (SI)(R9*2), Y2
	VFMADD231PD Y2, Y10, Y0
	VCVTPS2PD   (SI)(R10*1), Y3
	VFMADD231PD Y3, Y11, Y4
	VCVTPS2PD   (SI)(R9*4), Y2
	VFMADD231PD Y2, Y12, Y0
	VCVTPS2PD   (SI)(R11*1), Y3
	VFMADD231PD Y3, Y13, Y4
	VCVTPS2PD   (SI)(R10*2), Y2
	VFMADD231PD Y2, Y14, Y0
	VCVTPS2PD   (SI)(R12*1), Y3
	VFMADD231PD Y3, Y15, Y4
	VADDPD      Y4, Y0, Y0
	VMOVUPD     Y0, (DI)

f32done:
	VZEROUPPER
	RET

// func gemvDots4F64(m int, a *float64, lda int, x *float64, dst *float64, pf *float64)
//
// dst[0:4] = [col_0·x, col_1·x, col_2·x, col_3·x] with col_j starting at
// a + j·lda — the transposed-GEMV building block. Eight accumulators
// (Y0–Y3 for even 4-row groups, Y4–Y7 for odd) keep four independent
// two-deep FMA chains per column pair; the epilogue folds the pairs and
// does the standard VHADDPD / VPERM2F128 cross reduction so dst gets all
// four sums in one store. m must be a multiple of 4. Each 8-row step loads
// 256 bytes of the panel and hints the four cache lines at R8 = pf, which
// advances 256 bytes: 4·(m&^7) elements from pf over the call, the next
// 4-column panel (see gemvCols8F64 on the hints).
TEXT ·gemvDots4F64(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R9
	SHLQ $3, R9
	MOVQ x+24(FP), DX
	MOVQ dst+32(FP), DI
	MOVQ pf+40(FP), R8
	LEAQ (R9)(R9*2), R10

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	CMPQ CX, $8
	JLT  dtail4

dloop8:
	VMOVUPD     (DX), Y8
	VMOVUPD     32(DX), Y9
	PREFETCHT0  (R8)
	VMOVUPD     (SI), Y10
	VFMADD231PD Y8, Y10, Y0
	VMOVUPD     32(SI), Y11
	VFMADD231PD Y9, Y11, Y4
	PREFETCHT0  64(R8)
	VMOVUPD     (SI)(R9*1), Y12
	VFMADD231PD Y8, Y12, Y1
	VMOVUPD     32(SI)(R9*1), Y13
	VFMADD231PD Y9, Y13, Y5
	PREFETCHT0  128(R8)
	VMOVUPD     (SI)(R9*2), Y10
	VFMADD231PD Y8, Y10, Y2
	VMOVUPD     32(SI)(R9*2), Y11
	VFMADD231PD Y9, Y11, Y6
	PREFETCHT0  192(R8)
	VMOVUPD     (SI)(R10*1), Y12
	VFMADD231PD Y8, Y12, Y3
	VMOVUPD     32(SI)(R10*1), Y13
	VFMADD231PD Y9, Y13, Y7
	ADDQ        $64, SI
	ADDQ        $64, DX
	ADDQ        $256, R8
	SUBQ        $8, CX
	CMPQ        CX, $8
	JGE         dloop8

dtail4:
	CMPQ CX, $4
	JLT  dreduce

	VMOVUPD     (DX), Y8
	VMOVUPD     (SI), Y10
	VFMADD231PD Y8, Y10, Y0
	VMOVUPD     (SI)(R9*1), Y11
	VFMADD231PD Y8, Y11, Y1
	VMOVUPD     (SI)(R9*2), Y12
	VFMADD231PD Y8, Y12, Y2
	VMOVUPD     (SI)(R10*1), Y13
	VFMADD231PD Y8, Y13, Y3

dreduce:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	// [s0l+s0h…] cross-lane reduction: after the two VHADDPD, Y0 holds
	// {c0 lo, c1 lo, c0 hi, c1 hi} and Y2 {c2 lo, c3 lo, c2 hi, c3 hi};
	// the two VPERM2F128 regroup low and high halves so one VADDPD yields
	// {dot0, dot1, dot2, dot3}.
	VHADDPD    Y1, Y0, Y0
	VHADDPD    Y3, Y2, Y2
	VPERM2F128 $0x20, Y2, Y0, Y4
	VPERM2F128 $0x31, Y2, Y0, Y5
	VADDPD     Y5, Y4, Y0
	VMOVUPD    Y0, (DI)

	VZEROUPPER
	RET

// func gemvDots4F32(m int, a *float32, lda int, x *float64, dst *float64, pf *float32)
//
// Mixed-precision variant of gemvDots4F64: the columns hold float32, so
// every 4-lane load of A is a VCVTPS2PD widening straight into the float64
// FMA. Structure, accumulators and reduction are identical; the stride
// scale is 4 bytes and the A pointer advances 32 bytes per 8 rows. Each
// 8-row step loads 128 bytes of the panel, so it hints two cache lines at
// R8 = pf and advances R8 by 128: 4·(m&^7) elements from pf over the call.
TEXT ·gemvDots4F32(SB), NOSPLIT, $0-48
	MOVQ m+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R9
	SHLQ $2, R9
	MOVQ x+24(FP), DX
	MOVQ dst+32(FP), DI
	MOVQ pf+40(FP), R8
	LEAQ (R9)(R9*2), R10

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	CMPQ CX, $8
	JLT  d32tail4

d32loop8:
	VMOVUPD     (DX), Y8
	VMOVUPD     32(DX), Y9
	PREFETCHT0  (R8)
	VCVTPS2PD   (SI), Y10
	VFMADD231PD Y8, Y10, Y0
	VCVTPS2PD   16(SI), Y11
	VFMADD231PD Y9, Y11, Y4
	VCVTPS2PD   (SI)(R9*1), Y12
	VFMADD231PD Y8, Y12, Y1
	VCVTPS2PD   16(SI)(R9*1), Y13
	VFMADD231PD Y9, Y13, Y5
	PREFETCHT0  64(R8)
	VCVTPS2PD   (SI)(R9*2), Y10
	VFMADD231PD Y8, Y10, Y2
	VCVTPS2PD   16(SI)(R9*2), Y11
	VFMADD231PD Y9, Y11, Y6
	VCVTPS2PD   (SI)(R10*1), Y12
	VFMADD231PD Y8, Y12, Y3
	VCVTPS2PD   16(SI)(R10*1), Y13
	VFMADD231PD Y9, Y13, Y7
	ADDQ        $32, SI
	ADDQ        $64, DX
	ADDQ        $128, R8
	SUBQ        $8, CX
	CMPQ        CX, $8
	JGE         d32loop8

d32tail4:
	CMPQ CX, $4
	JLT  d32reduce

	VMOVUPD     (DX), Y8
	VCVTPS2PD   (SI), Y10
	VFMADD231PD Y8, Y10, Y0
	VCVTPS2PD   (SI)(R9*1), Y11
	VFMADD231PD Y8, Y11, Y1
	VCVTPS2PD   (SI)(R9*2), Y12
	VFMADD231PD Y8, Y12, Y2
	VCVTPS2PD   (SI)(R10*1), Y13
	VFMADD231PD Y8, Y13, Y3

d32reduce:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	VHADDPD    Y1, Y0, Y0
	VHADDPD    Y3, Y2, Y2
	VPERM2F128 $0x20, Y2, Y0, Y4
	VPERM2F128 $0x31, Y2, Y0, Y5
	VADDPD     Y5, Y4, Y0
	VMOVUPD    Y0, (DI)

	VZEROUPPER
	RET

// func readStream(n int, p *byte)
//
// Reads n bytes from p, 128 per iteration, OR-ing each 32-byte load into
// one of four YMM accumulators that are then dropped: a plain AVX2 read at
// the rate the memory system sustains for one core, which
// BenchmarkGemvStream divides the GEMV kernels' rates by. The integer OR
// cannot take a floating-point assist on any bit pattern. n must be a
// positive multiple of 128.
TEXT ·readStream(SB), NOSPLIT, $0-16
	MOVQ n+0(FP), CX
	MOVQ p+8(FP), SI
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

rloop:
	VPOR (SI), Y0, Y0
	VPOR 32(SI), Y1, Y1
	VPOR 64(SI), Y2, Y2
	VPOR 96(SI), Y3, Y3
	ADDQ $128, SI
	SUBQ $128, CX
	JGT  rloop

	VZEROUPPER
	RET
