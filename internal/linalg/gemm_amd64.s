//go:build amd64 && !purego

#include "textflag.h"

// func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ZERO_ACC clears the twelve tile accumulators Y4–Y15.
#define ZERO_ACC \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	VXORPD Y8, Y8, Y8; \
	VXORPD Y9, Y9, Y9; \
	VXORPD Y10, Y10, Y10; \
	VXORPD Y11, Y11, Y11; \
	VXORPD Y12, Y12, Y12; \
	VXORPD Y13, Y13, Y13; \
	VXORPD Y14, Y14, Y14; \
	VXORPD Y15, Y15, Y15

// FMA_STEP multiplies the A 8-vector in Y0/Y1 by the six packed B entries
// at DX and adds the products into the accumulators.
#define FMA_STEP \
	VBROADCASTSD (DX), Y2; \
	VFMADD231PD  Y0, Y2, Y4; \
	VFMADD231PD  Y1, Y2, Y5; \
	VBROADCASTSD 8(DX), Y3; \
	VFMADD231PD  Y0, Y3, Y6; \
	VFMADD231PD  Y1, Y3, Y7; \
	VBROADCASTSD 16(DX), Y2; \
	VFMADD231PD  Y0, Y2, Y8; \
	VFMADD231PD  Y1, Y2, Y9; \
	VBROADCASTSD 24(DX), Y3; \
	VFMADD231PD  Y0, Y3, Y10; \
	VFMADD231PD  Y1, Y3, Y11; \
	VBROADCASTSD 32(DX), Y2; \
	VFMADD231PD  Y0, Y2, Y12; \
	VFMADD231PD  Y1, Y2, Y13; \
	VBROADCASTSD 40(DX), Y3; \
	VFMADD231PD  Y0, Y3, Y14; \
	VFMADD231PD  Y1, Y3, Y15

// ACCUM_COL adds the accumulator pair (lo, hi) into the C column at DI and
// steps DI to the next column (R8 = column stride in bytes).
#define ACCUM_COL(lo, hi) \
	VMOVUPD (DI), Y0; \
	VADDPD  lo, Y0, Y0; \
	VMOVUPD Y0, (DI); \
	VMOVUPD 32(DI), Y1; \
	VADDPD  hi, Y1, Y1; \
	VMOVUPD Y1, 32(DI); \
	ADDQ    R8, DI

// ACCUM_TILE adds the whole 8×6 tile into C, one column at a time.
#define ACCUM_TILE \
	ACCUM_COL(Y4, Y5); \
	ACCUM_COL(Y6, Y7); \
	ACCUM_COL(Y8, Y9); \
	ACCUM_COL(Y10, Y11); \
	ACCUM_COL(Y12, Y13); \
	ACCUM_COL(Y14, Y15)

// func gemmKernel8x6(kc int, a *float64, lda int, b, c *float64, ldc int)
//
// 8×6 micro-kernel: C[0:8, 0:6] += A[0:8, 0:kc]·B[0:kc, 0:6]. The C tile
// lives in 12 YMM accumulators (two 4-wide vectors per column):
//
//	col j rows 0-3 → Y(4+2j), rows 4-7 → Y(5+2j)
//
// Per k step: two loads of an A 8-vector (Y0, Y1), six broadcasts of
// packed B entries (alternating Y2/Y3), twelve FMAs. Consecutive A
// 8-vectors are lda elements apart, so the same kernel runs on a packed
// A panel (lda = 8) and in place on a column-major block (lda = its
// stride). B entries are 48 bytes apart per step (one packed 6-vector).
TEXT ·gemmKernel8x6(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R9
	SHLQ $3, R9              // A step in bytes
	MOVQ b+24(FP), DX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R8
	SHLQ $3, R8              // C column stride in bytes
	ZERO_ACC
	TESTQ CX, CX
	JZ    accum

kloop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	FMA_STEP
	ADDQ    R9, SI
	ADDQ    $48, DX
	DECQ    CX
	JNZ     kloop

accum:
	ACCUM_TILE
	VZEROUPPER
	RET

// func gemmKernel8x6F32(kc int, a *float32, lda int, b, c *float64, ldc int)
//
// gemmKernel8x6 for a float32 A read in place: each 4-lane load is widened
// with VCVTPS2PD (as in gemvCols8F32), so the products and the
// accumulation stay in float64. lda is in float32 elements.
TEXT ·gemmKernel8x6F32(SB), NOSPLIT, $0-48
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R9
	SHLQ $2, R9              // A step in bytes
	MOVQ b+24(FP), DX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R8
	SHLQ $3, R8              // C column stride in bytes
	ZERO_ACC
	TESTQ CX, CX
	JZ    accum32

kloop32:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	FMA_STEP
	ADDQ      R9, SI
	ADDQ      $48, DX
	DECQ      CX
	JNZ       kloop32

accum32:
	ACCUM_TILE
	VZEROUPPER
	RET

// REDUCE4 folds the four accumulators a, b, c, d (one column dot each,
// four partial lanes) into {Σa, Σb, Σc, Σd} and stores them at off(DI),
// with the VHADDPD / VPERM2F128 cross reduction of gemvDots4F64. It
// clobbers a, c, Y12 and Y13.
#define REDUCE4(a, b, c, d, off) \
	VHADDPD    b, a, a; \
	VHADDPD    d, c, c; \
	VPERM2F128 $0x20, c, a, Y12; \
	VPERM2F128 $0x31, c, a, Y13; \
	VADDPD     Y13, Y12, a; \
	VMOVUPD    a, off(DI)

// DOTS_STEP multiplies the widened 4-row slice of one A column in Y15 into
// the three B slices in Y12–Y14, adding into the column's accumulators.
#define DOTS_STEP(c0, c1, c2) \
	VFMADD231PD Y15, Y12, c0; \
	VFMADD231PD Y15, Y13, c1; \
	VFMADD231PD Y15, Y14, c2

// func gemmDots4x3F64(k int, a *float64, lda int, b *float64, ldb int, dst *float64)
//
// The transposed constant-operand tile: dst[4j+i] = a_i · b_j for four
// columns a_i = a + i·lda and three columns b_j = b + j·ldb, each k long.
// Accumulator Y(4j+i) holds four partial sums of a_i · b_j; each step of 4
// rows loads the three B slices once (Y12–Y14) and one A slice at a time
// (Y15), so twelve independent FMA chains run on seven loads. The loop
// takes two steps per iteration, then at most one more. k must be a
// multiple of 4 (callers pass k &^ 3 and finish ragged rows in Go), so no
// load reaches past a column's last element.
TEXT ·gemmDots4x3F64(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R9
	SHLQ $3, R9
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R11
	SHLQ $3, R11
	MOVQ dst+40(FP), DI
	LEAQ (R9)(R9*2), R10

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	CMPQ CX, $8
	JLT  t64tail4

t64loop8:
	VMOVUPD (DX), Y12
	VMOVUPD (DX)(R11*1), Y13
	VMOVUPD (DX)(R11*2), Y14
	VMOVUPD (SI), Y15
	DOTS_STEP(Y0, Y4, Y8)
	VMOVUPD (SI)(R9*1), Y15
	DOTS_STEP(Y1, Y5, Y9)
	VMOVUPD (SI)(R9*2), Y15
	DOTS_STEP(Y2, Y6, Y10)
	VMOVUPD (SI)(R10*1), Y15
	DOTS_STEP(Y3, Y7, Y11)
	VMOVUPD 32(DX), Y12
	VMOVUPD 32(DX)(R11*1), Y13
	VMOVUPD 32(DX)(R11*2), Y14
	VMOVUPD 32(SI), Y15
	DOTS_STEP(Y0, Y4, Y8)
	VMOVUPD 32(SI)(R9*1), Y15
	DOTS_STEP(Y1, Y5, Y9)
	VMOVUPD 32(SI)(R9*2), Y15
	DOTS_STEP(Y2, Y6, Y10)
	VMOVUPD 32(SI)(R10*1), Y15
	DOTS_STEP(Y3, Y7, Y11)
	ADDQ    $64, SI
	ADDQ    $64, DX
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     t64loop8

t64tail4:
	CMPQ CX, $4
	JLT  t64reduce

	VMOVUPD (DX), Y12
	VMOVUPD (DX)(R11*1), Y13
	VMOVUPD (DX)(R11*2), Y14
	VMOVUPD (SI), Y15
	DOTS_STEP(Y0, Y4, Y8)
	VMOVUPD (SI)(R9*1), Y15
	DOTS_STEP(Y1, Y5, Y9)
	VMOVUPD (SI)(R9*2), Y15
	DOTS_STEP(Y2, Y6, Y10)
	VMOVUPD (SI)(R10*1), Y15
	DOTS_STEP(Y3, Y7, Y11)

t64reduce:
	REDUCE4(Y0, Y1, Y2, Y3, 0)
	REDUCE4(Y4, Y5, Y6, Y7, 32)
	REDUCE4(Y8, Y9, Y10, Y11, 64)
	VZEROUPPER
	RET

// func gemmDots4x3F32(k int, a *float32, lda int, b *float64, ldb int, dst *float64)
//
// gemmDots4x3F64 for a float32 A: each 4-row A slice is a VCVTPS2PD
// widening, lda is in float32 elements and the A pointer advances 16 bytes
// per step.
TEXT ·gemmDots4x3F32(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R9
	SHLQ $2, R9
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R11
	SHLQ $3, R11
	MOVQ dst+40(FP), DI
	LEAQ (R9)(R9*2), R10

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	CMPQ CX, $8
	JLT  t32tail4

t32loop8:
	VMOVUPD   (DX), Y12
	VMOVUPD   (DX)(R11*1), Y13
	VMOVUPD   (DX)(R11*2), Y14
	VCVTPS2PD (SI), Y15
	DOTS_STEP(Y0, Y4, Y8)
	VCVTPS2PD (SI)(R9*1), Y15
	DOTS_STEP(Y1, Y5, Y9)
	VCVTPS2PD (SI)(R9*2), Y15
	DOTS_STEP(Y2, Y6, Y10)
	VCVTPS2PD (SI)(R10*1), Y15
	DOTS_STEP(Y3, Y7, Y11)
	VMOVUPD   32(DX), Y12
	VMOVUPD   32(DX)(R11*1), Y13
	VMOVUPD   32(DX)(R11*2), Y14
	VCVTPS2PD 16(SI), Y15
	DOTS_STEP(Y0, Y4, Y8)
	VCVTPS2PD 16(SI)(R9*1), Y15
	DOTS_STEP(Y1, Y5, Y9)
	VCVTPS2PD 16(SI)(R9*2), Y15
	DOTS_STEP(Y2, Y6, Y10)
	VCVTPS2PD 16(SI)(R10*1), Y15
	DOTS_STEP(Y3, Y7, Y11)
	ADDQ      $32, SI
	ADDQ      $64, DX
	SUBQ      $8, CX
	CMPQ      CX, $8
	JGE       t32loop8

t32tail4:
	CMPQ CX, $4
	JLT  t32reduce

	VMOVUPD   (DX), Y12
	VMOVUPD   (DX)(R11*1), Y13
	VMOVUPD   (DX)(R11*2), Y14
	VCVTPS2PD (SI), Y15
	DOTS_STEP(Y0, Y4, Y8)
	VCVTPS2PD (SI)(R9*1), Y15
	DOTS_STEP(Y1, Y5, Y9)
	VCVTPS2PD (SI)(R9*2), Y15
	DOTS_STEP(Y2, Y6, Y10)
	VCVTPS2PD (SI)(R10*1), Y15
	DOTS_STEP(Y3, Y7, Y11)

t32reduce:
	REDUCE4(Y0, Y1, Y2, Y3, 0)
	REDUCE4(Y4, Y5, Y6, Y7, 32)
	REDUCE4(Y8, Y9, Y10, Y11, 64)
	VZEROUPPER
	RET
