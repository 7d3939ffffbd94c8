//go:build amd64 && !purego

#include "textflag.h"

// func axpyF64(n int, alpha float64, x, y *float64)
//
// y[0:n] += alpha·x[0:n], 16 rows per iteration in four independent
// vectors, then 4 rows at a time. Each element is rounded twice, product
// then sum, exactly as the scalar y[i] += alpha*x[i]. n must be a multiple
// of 4 (Axpy finishes ragged rows in Go).
TEXT ·axpyF64(SB), NOSPLIT, $0-32
	MOVQ         n+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y15
	MOVQ         x+16(FP), SI
	MOVQ         y+24(FP), DI

	CMPQ CX, $16
	JLT  axtail4

axloop16:
	VMULPD  (SI), Y15, Y0
	VMULPD  32(SI), Y15, Y1
	VMULPD  64(SI), Y15, Y2
	VMULPD  96(SI), Y15, Y3
	VADDPD  (DI), Y0, Y0
	VADDPD  32(DI), Y1, Y1
	VADDPD  64(DI), Y2, Y2
	VADDPD  96(DI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     axloop16

axtail4:
	CMPQ CX, $4
	JLT  axdone

	VMULPD  (SI), Y15, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     axtail4

axdone:
	VZEROUPPER
	RET

// func dotCols4(m int, a *float64, lda int, x *float64, dst *float64)
//
// Four column dots against one x, with Dot's summation order: Y0–Y3 hold
// the lanes (s0, s1, s2, s3) of columns 0–3, each fed one rounded product
// per 4-row step, so every lane is a single in-order chain exactly like
// Dot's scalar accumulators. The epilogue transposes the 4×4 block of
// lanes (VUNPCKLPD/VUNPCKHPD within 128-bit halves, VPERM2F128 across
// them) and adds the lane vectors in Dot's order ((s0+s1)+s2)+s3 for all
// four columns at once. m must be a multiple of 4.
TEXT ·dotCols4(SB), NOSPLIT, $0-40
	MOVQ m+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R9
	SHLQ $3, R9
	MOVQ x+24(FP), DX
	MOVQ dst+32(FP), DI
	LEAQ (R9)(R9*2), R10

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	TESTQ CX, CX
	JZ    qreduce

qloop4:
	VMOVUPD (DX), Y8
	VMULPD  (SI), Y8, Y4
	VMULPD  (SI)(R9*1), Y8, Y5
	VMULPD  (SI)(R9*2), Y8, Y6
	VMULPD  (SI)(R10*1), Y8, Y7
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JNZ     qloop4

qreduce:
	// Y4 = {c0.s0, c1.s0, c0.s2, c1.s2}, Y5 = {c0.s1, c1.s1, c0.s3, c1.s3},
	// Y6 and Y7 the same for columns 2 and 3; the permutes then gather
	// lane l of all four columns into one vector.
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VADDPD     Y1, Y0, Y0
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y0, Y0
	VMOVUPD    Y0, (DI)

	VZEROUPPER
	RET
