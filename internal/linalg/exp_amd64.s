//go:build amd64 && !purego

#include "textflag.h"

// The FMA branch (avxfma) of math.archExp in $GOROOT/src/math/exp_amd64.s,
// four lanes at a time: the same constants, the same operations in the
// same order, so each lane rounds exactly as the scalar routine does. That
// routine is Shibata's SIMD-oriented SLEEF polynomial (ISC'10): a range
// reduction by k·ln2, a degree-8 Taylor polynomial of r/16 and four
// squarings, with no table lookups, so lanes never diverge. The scalar
// routine's special cases (NaN, ±Inf, overflow past 709.78, subnormal
// results) cannot arise for |x| ≤ 700, and the kernel stops at the first
// group of four with a lane outside that range.

// LANES stores one float64 constant in the four lanes at off0…off3.
#define LANES(off0, off1, off2, off3, v) \
	DATA expdata<>+off0(SB)/8, v; \
	DATA expdata<>+off1(SB)/8, v; \
	DATA expdata<>+off2(SB)/8, v; \
	DATA expdata<>+off3(SB)/8, v

LANES(0, 8, 16, 24, $1.4426950408889634073599246810018920)       // LOG2E
LANES(32, 40, 48, 56, $0.69314718055966295651160180568695068359375) // LN2U
LANES(64, 72, 80, 88, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
LANES(96, 104, 112, 120, $0.0625)
LANES(128, 136, 144, 152, $2.4801587301587301587e-5)  // exprodata+64
LANES(160, 168, 176, 184, $1.9841269841269841270e-4)  // exprodata+56
LANES(192, 200, 208, 216, $1.3888888888888888889e-3)  // exprodata+48
LANES(224, 232, 240, 248, $8.3333333333333333333e-3)  // exprodata+40
LANES(256, 264, 272, 280, $4.1666666666666666667e-2)  // exprodata+32
LANES(288, 296, 304, 312, $1.6666666666666666667e-1)  // exprodata+24
LANES(320, 328, 336, 344, $0.5)                       // exprodata+0
LANES(352, 360, 368, 376, $1.0)                       // exprodata+8
LANES(384, 392, 400, 408, $2.0)                       // exprodata+16
LANES(416, 424, 432, 440, $700.0)                     // safe range bound
LANES(448, 456, 464, 472, $0x7FFFFFFFFFFFFFFF)        // |x| mask
LANES(480, 488, 496, 504, $0x3FF)                     // exponent bias
GLOBL expdata<>(SB), RODATA|NOPTR, $512

#define LOG2E expdata<>+0(SB)
#define LN2U expdata<>+32(SB)
#define LN2L expdata<>+64(SB)
#define SIXTEENTH expdata<>+96(SB)
#define C64 expdata<>+128(SB)
#define C56 expdata<>+160(SB)
#define C48 expdata<>+192(SB)
#define C40 expdata<>+224(SB)
#define C32 expdata<>+256(SB)
#define C24 expdata<>+288(SB)
#define HALF expdata<>+320(SB)
#define ONE expdata<>+352(SB)
#define TWO expdata<>+384(SB)
#define BOUND expdata<>+416(SB)
#define ABSMASK expdata<>+448(SB)
#define BIAS expdata<>+480(SB)

// func expKernel(n int, x *float64) int
//
// Replaces x[i] by exp(x[i]) in groups of four, in place, and returns the
// number of elements done. It stops before the first group that holds a
// lane outside [−700, 700] or a NaN (the ordered compare fails for NaN),
// leaving that group untouched. n must be a multiple of 4.
TEXT ·expKernel(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ x+8(FP), SI
	XORQ AX, AX

exploop:
	CMPQ AX, CX
	JGE  expdone

	VMOVUPD   (SI), Y0
	VANDPD    ABSMASK, Y0, Y4
	VCMPPD    $0x12, BOUND, Y4, Y4 // |x| ≤ 700, ordered and quiet
	VMOVMSKPD Y4, DX
	CMPQ      DX, $15
	JNE       expdone

	// k = round(x·log2e)
	VMULPD     LOG2E, Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD  X2, Y1

	// r = (x − k·LN2U − k·LN2L)/16
	VFNMADD231PD LN2U, Y1, Y0
	VFNMADD231PD LN2L, Y1, Y0
	VMULPD       SIXTEENTH, Y0, Y0

	// Taylor series evaluation
	VMOVUPD     C64, Y1
	VFMADD213PD C56, Y0, Y1
	VFMADD213PD C48, Y0, Y1
	VFMADD213PD C40, Y0, Y1
	VFMADD213PD C32, Y0, Y1
	VFMADD213PD C24, Y0, Y1
	VFMADD213PD HALF, Y0, Y1
	VFMADD213PD ONE, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      TWO, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      TWO, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      TWO, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      TWO, Y0, Y1
	VFMADD213PD ONE, Y1, Y0

	// return fr · 2**k
	VPMOVSXDQ X2, Y3
	VPADDQ    BIAS, Y3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0

	VMOVUPD Y0, (SI)
	ADDQ    $32, SI
	ADDQ    $4, AX
	JMP     exploop

expdone:
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET
