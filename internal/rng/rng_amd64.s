// NormArgs3's AVX2 kernel: three xoshiro256** generators stepped as
// the lanes of one vector, each lane the Go step and normArgs operation
// for operation. xoshiro needs only 64-bit shifts, adds, xors and ors
// (×5 and ×9 are shift-adds), so the three streams step at the latency
// of one. The bits-to-double conversion float64(int64(x>>11)) is exact
// in two halves: the high 21 bits and the low 32 each become a double
// by borrowing an exponent, and their sum, below 2⁵³, rounds nowhere.
// CPU feature probing for the module lives here too.

#include "textflag.h"

// C4 is a 32-byte read-only constant: bits in all four lanes.
#define C4(sym, bits) DATA sym<>+0(SB)/8, $bits; DATA sym<>+8(SB)/8, $bits; DATA sym<>+16(SB)/8, $bits; DATA sym<>+24(SB)/8, $bits; GLOBL sym<>(SB), RODATA|NOPTR, $32

C4(hiExp, 0x4530000000000000)     // 2⁸⁴, whose mantissa's unit is 2³²
C4(loExp, 0x4330000000000000)     // 2⁵², whose mantissa's unit is 1
C4(hiLoExp, 0x4530000000100000)   // 2⁸⁴ + 2⁵²
C4(one, 0x3ff0000000000000)
C4(negScale, 0xbca0000000000000)  // -2⁻⁵³
C4(twoPiScale, 0x3cc921fb54442d18) // float64(2π)·2⁻⁵³

// STEP is step on the state Y0–Y3 (s0–s3, a stream to a lane): the
// output to Y4, Y5 clobbered.
#define STEP \
	VPSLLQ $2, Y1, Y4; \
	VPADDQ Y1, Y4, Y4; \
	VPSLLQ $7, Y4, Y5; \
	VPSRLQ $57, Y4, Y4; \
	VPOR   Y5, Y4, Y4; \
	VPSLLQ $3, Y4, Y5; \
	VPADDQ Y4, Y5, Y4; \
	VPSLLQ $17, Y1, Y5; \
	VPXOR  Y0, Y2, Y2; \
	VPXOR  Y1, Y3, Y3; \
	VPXOR  Y2, Y1, Y1; \
	VPXOR  Y3, Y0, Y0; \
	VPXOR  Y5, Y2, Y2; \
	VPSLLQ $45, Y3, Y5; \
	VPSRLQ $19, Y3, Y3; \
	VPOR   Y5, Y3, Y3

// V53 is float64(int64(Y4>>11)) into Y4, Y5 and Y6 clobbered: v's
// high half as 2⁸⁴ + hi·2³², less 2⁸⁴ + 2⁵², plus its low half as
// 2⁵² + lo, is v exactly.
#define V53 \
	VPSRLQ   $11, Y4, Y4; \
	VPSRLQ   $32, Y4, Y5; \
	VPOR     hiExp<>(SB), Y5, Y5; \
	VPBLENDD $0xaa, loExp<>(SB), Y4, Y6; \
	VSUBPD   hiLoExp<>(SB), Y5, Y5; \
	VADDPD   Y6, Y5, Y4

// DRAW is one NormArgs draw per lane: two steps, then logArg = 1 +
// v₁·-2⁻⁵³ into u, which is 1 - unit(x₁) as v₁·2⁻⁵³ is exact, and
// cosArg = v₂·(2π·2⁻⁵³) into c, which rounds as 2π·unit(x₂) does, a
// power of two scaling exactly on either side of the one rounding.
#define DRAW(u, c) \
	STEP; \
	V53; \
	VMULPD negScale<>(SB), Y4, Y4; \
	VADDPD one<>(SB), Y4, u; \
	STEP; \
	V53; \
	VMULPD twoPiScale<>(SB), Y4, c

// STORE3 stores the streams' lanes of draws i to i+3 (rows r0–r3, a
// draw to a row) to the three arrays at a, b, c: a 4×4 transpose whose
// fourth column, the idle lane, is never formed. Y4, Y5, Y6, Y15 and
// r0–r2 clobbered.
#define STORE3(r0, r1, r2, r3, a, b, c) \
	VUNPCKLPD  r1, r0, Y4; \
	VUNPCKHPD  r1, r0, Y5; \
	VUNPCKLPD  r3, r2, Y6; \
	VUNPCKHPD  r3, r2, Y15; \
	VPERM2F128 $0x20, Y6, Y4, r0; \
	VPERM2F128 $0x20, Y15, Y5, r1; \
	VPERM2F128 $0x31, Y6, Y4, r2; \
	VMOVUPD    r0, (a)(AX*8); \
	VMOVUPD    r1, (b)(AX*8); \
	VMOVUPD    r2, (c)(AX*8)

// func normArgs3Vec(st *[4][4]uint64, logArgs, cosArgs *[3][]float64, n int)
//
// Per draw i: x₁, x₂ = two steps; logArgs[k][i] = 1 - unit(x₁) and
// cosArgs[k][i] = 2π·unit(x₂), lane k. Four draws to a group, stored by
// transposing, then one at a time by lane. SI, DI, R8 = logArgs'
// bases, R9, R10, R11 = cosArgs', AX = i, BX = n rounded down to four,
// CX = n.
TEXT ·normArgs3Vec(SB), NOSPLIT, $0-32
	MOVQ st+0(FP), DX
	MOVQ logArgs+8(FP), BX
	MOVQ 0(BX), SI
	MOVQ 24(BX), DI
	MOVQ 48(BX), R8
	MOVQ cosArgs+16(FP), BX
	MOVQ 0(BX), R9
	MOVQ 24(BX), R10
	MOVQ 48(BX), R11
	MOVQ n+24(FP), CX
	MOVQ CX, BX
	ANDQ $~3, BX
	VMOVDQU 0(DX), Y0
	VMOVDQU 32(DX), Y1
	VMOVDQU 64(DX), Y2
	VMOVDQU 96(DX), Y3
	XORQ AX, AX
groupLoop:
	CMPQ AX, BX
	JGE  drawLoop
	DRAW(Y7, Y11)
	DRAW(Y8, Y12)
	DRAW(Y9, Y13)
	DRAW(Y10, Y14)
	STORE3(Y7, Y8, Y9, Y10, SI, DI, R8)
	STORE3(Y11, Y12, Y13, Y14, R9, R10, R11)
	ADDQ $4, AX
	JMP  groupLoop
drawLoop:
	CMPQ AX, CX
	JGE  drawDone
	DRAW(Y7, Y8)
	VMOVSD  X7, (SI)(AX*8)
	VMOVHPD X7, (DI)(AX*8)
	VEXTRACTF128 $1, Y7, X7
	VMOVSD  X7, (R8)(AX*8)
	VMOVSD  X8, (R9)(AX*8)
	VMOVHPD X8, (R10)(AX*8)
	VEXTRACTF128 $1, Y8, X8
	VMOVSD  X8, (R11)(AX*8)
	INCQ AX
	JMP  drawLoop
drawDone:
	VMOVDQU Y0, 0(DX)
	VMOVDQU Y1, 32(DX)
	VMOVDQU Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
