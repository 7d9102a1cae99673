// Four-lane AVX2 copies of math.Exp, math.Log and math.Cos as Go runs
// them on amd64: the FMA path of math's exp_amd64.s, math's log_amd64.s
// and the pure-Go cos of math/sin.go, each repeated operation for
// operation — the same constants, the same roundings in the same order,
// an FMA exactly where archExp has one and nowhere else — so every lane
// is the scalar function's result bit for bit. Each kernel works along
// xs in place, four elements at a time from the start, and stops at the
// first group holding a lane outside its safe range (where the scalar
// code would branch: special values, overflow, the denormal ldexp, the
// Payne–Hanek reduction) or when fewer than four remain; it returns how
// many elements it replaced, and kernels.go does the rest with math.
// Their bodies are macros, shared with the stage kernels at the end of
// this file, which run simgrid.go's stage loops four hours at a time
// and read their Go structs by go_asm.h's field offsets.

#include "go_asm.h"
#include "textflag.h"

// C4 is a 32-byte read-only constant: bits in all four lanes.
#define C4(sym, bits) DATA sym<>+0(SB)/8, $bits; DATA sym<>+8(SB)/8, $bits; DATA sym<>+16(SB)/8, $bits; DATA sym<>+24(SB)/8, $bits; GLOBL sym<>(SB), RODATA|NOPTR, $32

C4(one, 0x3ff0000000000000)
C4(two, 0x4000000000000000)
C4(half, 0x3fe0000000000000)

// exp_amd64.s: LOG2E, LN2U, LN2L and the Taylor coefficients of exprodata.
C4(expLo, 0xc086200000000000)    // -708
C4(expHi, 0x4086280000000000)    // 709
C4(expLog2e, 0x3ff71547652b82fe)
C4(expLn2u, 0x3fe62e42fefa3000)
C4(expLn2l, 0x3d53de6af278ece6)
C4(expSixteenth, 0x3fb0000000000000)
C4(expC24, 0x3fc5555555555555)
C4(expC32, 0x3fa5555555555555)
C4(expC40, 0x3f81111111111111)
C4(expC48, 0x3f56c16c16c16c17)
C4(expC56, 0x3f2a01a01a01a01a)
C4(expC64, 0x3efa01a01a01a01a)
C4(expBias, 0x00000000000003ff)

// log_amd64.s: HSqrt2, Ln2Hi, Ln2Lo, L1–L7.
C4(logMin, 0x0010000000000000)   // smallest normal
C4(logMax, 0x7fefffffffffffff)   // MaxFloat64
C4(logMant, 0x000fffffffffffff)
C4(logTwo52, 0x4330000000000000) // 2⁵²
C4(logMagic, 0x43300000000003fe) // 2⁵² + 0x3FE
C4(logHSqrt2, 0x3fe6a09e667f3bcd)
C4(logLn2Hi, 0x3fe62e42fee00000)
C4(logLn2Lo, 0x3dea39ef35793c76)
C4(logL1, 0x3fe5555555555593)
C4(logL2, 0x3fd999999997fa04)
C4(logL3, 0x3fd2492494229359)
C4(logL4, 0x3fcc71c51d8e78af)
C4(logL5, 0x3fc7466496cb03de)
C4(logL6, 0x3fc39a09d078c69f)
C4(logL7, 0x3fc2f112df3e5244)

// sin.go: PI4A–PI4C, 4/Pi, reduceThreshold and the _sin and _cos tables.
C4(cosAbs, 0x7fffffffffffffff)
C4(cosSign, 0x8000000000000000)
C4(cosReduce, 0x41c0000000000000) // 1<<29
C4(cosFourOverPi, 0x3ff45f306dc9c883)
C4(cosPI4A, 0x3fe921fb40000000)
C4(cosPI4B, 0x3e64442d00000000)
C4(cosPI4C, 0x3ce8469898cc5170)
C4(cosS0, 0x3de5d8fd1fd19ccd)
C4(cosS1, 0xbe5ae5e5a9291f5d)
C4(cosS2, 0x3ec71de3567d48a1)
C4(cosS3, 0xbf2a01a019bfdf03)
C4(cosS4, 0x3f8111111110f7d0)
C4(cosS5, 0xbfc5555555555548)
C4(cosC0, 0xbda8fa49a0861a9b)
C4(cosC1, 0x3e21ee9d7b4e3f05)
C4(cosC2, 0xbe927e4f7eac4bc6)
C4(cosC3, 0x3efa01a019c844f5)
C4(cosC4, 0xbf56c16c16c14f91)
C4(cosC5, 0x3fa555555555554b)
C4(cosTwo, 0x0000000000000002) // octant bit 1, as an integer

DATA cosOddMask<>+0(SB)/4, $1
DATA cosOddMask<>+4(SB)/4, $1
DATA cosOddMask<>+8(SB)/4, $1
DATA cosOddMask<>+12(SB)/4, $1
GLOBL cosOddMask<>(SB), RODATA|NOPTR, $16
DATA cosOctant<>+0(SB)/4, $7
DATA cosOctant<>+4(SB)/4, $7
DATA cosOctant<>+8(SB)/4, $7
DATA cosOctant<>+12(SB)/4, $7
GLOBL cosOctant<>(SB), RODATA|NOPTR, $16

// Every kernel: SI = &xs[0], CX = len(xs) - 4, AX = elements done.
#define PROLOGUE \
	MOVQ xs_base+0(FP), SI; \
	MOVQ xs_len+8(FP), CX; \
	XORQ AX, AX; \
	SUBQ $4, CX

#define EPILOGUE \
	VZEROUPPER; \
	MOVQ AX, ret+24(FP); \
	RET

// The bodies of the three kernels, as macros the fused stage kernels
// below share. A *_SAFE check jumps to fail unless all four lanes of
// its register are in the body's safe range; it clobbers Y1, Y2 and DX.
//
// EXP_SAFE: -708 <= x <= 709, so the exponent k stays in [-1021, 1023]
// and archExp's ldexp takes its normal path. NaN fails both.
#define EXP_SAFE(x, fail) \
	VCMPPD $0x1d, expLo<>(SB), x, Y1; \
	VCMPPD $0x12, expHi<>(SB), x, Y2; \
	VANDPD Y1, Y2, Y1; \
	VMOVMSKPD Y1, DX; \
	CMPL DX, $15; \
	JNE  fail

// EXP_BODY: Y0 = exp(Y0); clobbers Y1–Y3. k = round(x·LOG2E), as
// CVTSD2SL rounds it; x -= k·LN2U; x -= k·LN2L (fused, as archExp's
// avxfma path); the Taylor series in fused Horner steps; four squarings
// of the reduction by 16, x·(x+2), the last fused with the final +1;
// × 2^k, built from the biased exponent's bits.
#define EXP_BODY \
	VMULPD expLog2e<>(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X3; \
	VCVTDQ2PD X3, Y2; \
	VFNMADD231PD expLn2u<>(SB), Y2, Y0; \
	VFNMADD231PD expLn2l<>(SB), Y2, Y0; \
	VMULPD expSixteenth<>(SB), Y0, Y0; \
	VMOVUPD expC64<>(SB), Y1; \
	VFMADD213PD expC56<>(SB), Y0, Y1; \
	VFMADD213PD expC48<>(SB), Y0, Y1; \
	VFMADD213PD expC40<>(SB), Y0, Y1; \
	VFMADD213PD expC32<>(SB), Y0, Y1; \
	VFMADD213PD expC24<>(SB), Y0, Y1; \
	VFMADD213PD half<>(SB), Y0, Y1; \
	VFMADD213PD one<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD two<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD two<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD two<>(SB), Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD two<>(SB), Y0, Y1; \
	VFMADD213PD one<>(SB), Y1, Y0; \
	VPMOVSXDQ X3, Y2; \
	VPADDQ expBias<>(SB), Y2, Y2; \
	VPSLLQ $52, Y2, Y2; \
	VMULPD Y2, Y0, Y0

// LOG_SAFE: positive, normal and finite. NaN fails both.
#define LOG_SAFE(x, fail) \
	VCMPPD $0x1d, logMin<>(SB), x, Y1; \
	VCMPPD $0x12, logMax<>(SB), x, Y2; \
	VANDPD Y1, Y2, Y1; \
	VMOVMSKPD Y1, DX; \
	CMPL DX, $15; \
	JNE  fail

// LOG_BODY: Y1 = log(Y0); clobbers Y0, Y2–Y6. f1 = mantissa | 0.5; k =
// exponent - 0x3FE, converted exactly through 2⁵² + exponent; if
// !(HSqrt2 < f1) { k -= 1; f1 *= 2 } — archLog's CMPSD $5 (NLT), with
// the operands swapped (NGT; f1 is never NaN); f = f1 - 1; s = f / (2 +
// f); s2 = s·s; s4 = s2·s2; t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)));
// t2 = s4·(L2 + s4·(L4 + s4·L6)); R = t1 + t2; hfsq = 0.5·f·f; then
// k·Ln2Hi - ((hfsq - (s·(hfsq+R) + k·Ln2Lo)) - f).
#define LOG_BODY \
	VANDPD logMant<>(SB), Y0, Y2; \
	VORPD half<>(SB), Y2, Y2; \
	VPSRLQ $52, Y0, Y1; \
	VPOR   logTwo52<>(SB), Y1, Y1; \
	VSUBPD logMagic<>(SB), Y1, Y1; \
	VCMPPD $0x0a, logHSqrt2<>(SB), Y2, Y3; \
	VANDPD one<>(SB), Y3, Y3; \
	VSUBPD Y3, Y1, Y1; \
	VADDPD one<>(SB), Y3, Y3; \
	VMULPD Y3, Y2, Y2; \
	VSUBPD one<>(SB), Y2, Y2; \
	VADDPD two<>(SB), Y2, Y0; \
	VDIVPD Y0, Y2, Y3; \
	VMULPD Y3, Y3, Y4; \
	VMULPD Y4, Y4, Y5; \
	VMULPD logL7<>(SB), Y5, Y6; \
	VADDPD logL5<>(SB), Y6, Y6; \
	VMULPD Y5, Y6, Y6; \
	VADDPD logL3<>(SB), Y6, Y6; \
	VMULPD Y5, Y6, Y6; \
	VADDPD logL1<>(SB), Y6, Y6; \
	VMULPD Y6, Y4, Y4; \
	VMULPD logL6<>(SB), Y5, Y6; \
	VADDPD logL4<>(SB), Y6, Y6; \
	VMULPD Y5, Y6, Y6; \
	VADDPD logL2<>(SB), Y6, Y6; \
	VMULPD Y6, Y5, Y5; \
	VADDPD Y5, Y4, Y4; \
	VMULPD half<>(SB), Y2, Y0; \
	VMULPD Y2, Y0, Y0; \
	VADDPD Y0, Y4, Y4; \
	VMULPD Y4, Y3, Y3; \
	VMULPD logLn2Lo<>(SB), Y1, Y4; \
	VADDPD Y4, Y3, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VSUBPD Y2, Y0, Y0; \
	VMULPD logLn2Hi<>(SB), Y1, Y1; \
	VSUBPD Y0, Y1, Y1

// COS_SAFE: x = |x| in place, then |x| < reduceThreshold, so no
// trigReduce. NaN and ±Inf fail.
#define COS_SAFE(x, fail) \
	VANDPD cosAbs<>(SB), x, x; \
	VCMPPD $0x11, cosReduce<>(SB), x, Y1; \
	VMOVMSKPD Y1, DX; \
	CMPL DX, $15; \
	JNE  fail

// COS_BODY: Y6 = cos(Y0) for Y0 = |x|; clobbers Y0–Y5, Y7. j =
// uint64(x·(4/Pi)); an odd j and its y move up one; j &= 7; z = ((x -
// y·PI4A) - y·PI4B) - y·PI4C; zz = z·z; the sine series z +
// z·zz·((((((_sin[0]·zz)+_sin[1])·zz+…)+_sin[5]) and the cosine series
// 1.0 - 0.5·zz + zz·zz·((((((_cos[0]·zz)+…)+_cos[5]); j is even, so
// octant 2 or 6 takes the sine series, and the sign flips where exactly
// one of j's bits 1 and 2 is set.
#define COS_BODY \
	VMULPD cosFourOverPi<>(SB), Y0, Y1; \
	VCVTTPD2DQY Y1, X2; \
	VPAND cosOddMask<>(SB), X2, X3; \
	VPADDD X3, X2, X2; \
	VCVTDQ2PD X2, Y1; \
	VPAND cosOctant<>(SB), X2, X2; \
	VMULPD cosPI4A<>(SB), Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD cosPI4B<>(SB), Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD cosPI4C<>(SB), Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD Y0, Y0, Y1; \
	VMULPD cosS0<>(SB), Y1, Y3; \
	VADDPD cosS1<>(SB), Y3, Y3; \
	VMULPD Y1, Y3, Y3; \
	VADDPD cosS2<>(SB), Y3, Y3; \
	VMULPD Y1, Y3, Y3; \
	VADDPD cosS3<>(SB), Y3, Y3; \
	VMULPD Y1, Y3, Y3; \
	VADDPD cosS4<>(SB), Y3, Y3; \
	VMULPD Y1, Y3, Y3; \
	VADDPD cosS5<>(SB), Y3, Y3; \
	VMULPD Y1, Y0, Y4; \
	VMULPD Y3, Y4, Y4; \
	VADDPD Y4, Y0, Y4; \
	VMULPD cosC0<>(SB), Y1, Y3; \
	VADDPD cosC1<>(SB), Y3, Y3; \
	VMULPD Y1, Y3, Y3; \
	VADDPD cosC2<>(SB), Y3, Y3; \
	VMULPD Y1, Y3, Y3; \
	VADDPD cosC3<>(SB), Y3, Y3; \
	VMULPD Y1, Y3, Y3; \
	VADDPD cosC4<>(SB), Y3, Y3; \
	VMULPD Y1, Y3, Y3; \
	VADDPD cosC5<>(SB), Y3, Y3; \
	VMULPD Y1, Y1, Y5; \
	VMULPD Y3, Y5, Y5; \
	VMULPD half<>(SB), Y1, Y6; \
	VMOVUPD one<>(SB), Y7; \
	VSUBPD Y6, Y7, Y6; \
	VADDPD Y5, Y6, Y6; \
	VPMOVZXDQ X2, Y7; \
	VPAND cosTwo<>(SB), Y7, Y3; \
	VPCMPEQQ cosTwo<>(SB), Y3, Y3; \
	VBLENDVPD Y3, Y4, Y6, Y6; \
	VPSLLQ $1, Y7, Y3; \
	VPXOR Y7, Y3, Y3; \
	VPSLLQ $61, Y3, Y3; \
	VPAND cosSign<>(SB), Y3, Y3; \
	VXORPD Y3, Y6, Y6

// func expVec(xs []float64) int
TEXT ·expVec(SB), NOSPLIT, $0-32
	PROLOGUE
expLoop:
	CMPQ AX, CX
	JGT  expDone
	VMOVUPD (SI)(AX*8), Y0
	EXP_SAFE(Y0, expDone)
	EXP_BODY
	VMOVUPD Y0, (SI)(AX*8)
	ADDQ $4, AX
	JMP  expLoop
expDone:
	EPILOGUE

// func logVec(xs []float64) int
TEXT ·logVec(SB), NOSPLIT, $0-32
	PROLOGUE
logLoop:
	CMPQ AX, CX
	JGT  logDone
	VMOVUPD (SI)(AX*8), Y0
	LOG_SAFE(Y0, logDone)
	LOG_BODY
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ $4, AX
	JMP  logLoop
logDone:
	EPILOGUE

// func cosVec(xs []float64) int
TEXT ·cosVec(SB), NOSPLIT, $0-32
	PROLOGUE
cosLoop:
	CMPQ AX, CX
	JGT  cosDone
	VMOVUPD (SI)(AX*8), Y0
	COS_SAFE(Y0, cosDone)
	COS_BODY
	VMOVUPD Y6, (SI)(AX*8)
	ADDQ $4, AX
	JMP  cosLoop
cosDone:
	EPILOGUE

// The stage kernels of dispatch. Each is its stage loop in
// simgrid.go, operation for operation, four hours to a group: every
// lane computes both sides of each branch the loop takes, and a mask
// picks the one the loop would have. A branch the kernel does not take
// — one whose lanes have no vector form, or would round a zero's sign
// differently — stops it before the group's first store; runStage then
// hands that group to the Go loop. Every kernel: DI = b, AX = hour, BX
// = the first hour, CX = b.m - 4.
DATA lanes<>+0(SB)/8, $0x0000000000000000
DATA lanes<>+8(SB)/8, $0x3ff0000000000000
DATA lanes<>+16(SB)/8, $0x4000000000000000
DATA lanes<>+24(SB)/8, $0x4008000000000000
GLOBL lanes<>(SB), RODATA|NOPTR, $32
C4(four, 0x4010000000000000)
C4(minusTwo, 0xc000000000000000)
C4(quarter, 0x3fd0000000000000)
C4(threeQuarters, 0x3fe8000000000000)
C4(frexpBias, 0x00000000000003fe)    // 1022
C4(pow2Max, 0x00000000000003ff)      // 1023
C4(pow2Min, 0xfffffffffffffc01)      // -1023

#define STAGE_PROLOGUE \
	MOVQ b+0(FP), DI; \
	MOVQ i+8(FP), AX; \
	MOVQ AX, BX; \
	MOVQ dispatchBlock_m(DI), CX; \
	SUBQ $4, CX

#define STAGE_EPILOGUE \
	VZEROUPPER; \
	SUBQ BX, AX; \
	MOVQ AX, ret+16(FP); \
	RET

// func driftVec(b *dispatchBlock, i int) int
//
// shift = span·((h0+i - half) / (n-1)), clamped to [-renew, fossil] as
// drift.shares clamps it; each fossil share less shift·share/fossil,
// each intermittent one plus shift·share/renew, and all five unmoved
// where the clamped shift is zero. A mix without fossil or without
// intermittent share takes the Go loop's other branches throughout.
TEXT ·driftVec(SB), NOSPLIT, $0-24
	STAGE_PROLOGUE
	VXORPD X0, X0, X0
	MOVSD dispatchBlock_d+drift_fossil(DI), X1
	UCOMISD X0, X1
	JLS  driftDone
	MOVSD dispatchBlock_d+drift_renew(DI), X1
	UCOMISD X0, X1
	JLS  driftDone
	VBROADCASTSD dispatchBlock_half(DI), Y8
	VBROADCASTSD dispatchBlock_nm1(DI), Y9
	VBROADCASTSD dispatchBlock_span(DI), Y10
	VBROADCASTSD dispatchBlock_d+drift_fossil(DI), Y11
	VBROADCASTSD dispatchBlock_d+drift_renew(DI), Y12
	VXORPD cosSign<>(SB), Y12, Y13 // -renew
	VBROADCASTSD dispatchBlock_coal0(DI), Y4
	VBROADCASTSD dispatchBlock_gas0(DI), Y5
	VBROADCASTSD dispatchBlock_oil0(DI), Y6
	VBROADCASTSD dispatchBlock_solar0(DI), Y7
	VBROADCASTSD dispatchBlock_wind0(DI), Y14
	// Y0 = float64(h0+i) in each lane; exact, as every hour is below 2⁵³.
	MOVQ dispatchBlock_h0(DI), DX
	ADDQ AX, DX
	CVTSQ2SD DX, X0
	VBROADCASTSD X0, Y0
	VADDPD lanes<>(SB), Y0, Y0
driftLoop:
	CMPQ AX, CX
	JGT  driftDone
	VSUBPD Y8, Y0, Y1
	VDIVPD Y9, Y1, Y1
	VMULPD Y1, Y10, Y1
	VMOVUPD Y1, dispatchBlock_shift(DI)(AX*8)
	// if shift > fossil { shift = fossil }; if -shift > renew { shift = -renew }
	VMINPD Y1, Y11, Y1
	VMAXPD Y1, Y13, Y1
	VXORPD Y2, Y2, Y2
	VCMPPD $0x00, Y2, Y1, Y15 // EQ_OQ: shift == 0 returns the shares as they are
	VMULPD Y4, Y1, Y2
	VDIVPD Y11, Y2, Y2
	VSUBPD Y2, Y4, Y2
	VBLENDVPD Y15, Y4, Y2, Y2
	VMOVUPD Y2, dispatchBlock_coal(DI)(AX*8)
	VMULPD Y5, Y1, Y2
	VDIVPD Y11, Y2, Y2
	VSUBPD Y2, Y5, Y2
	VBLENDVPD Y15, Y5, Y2, Y2
	VMOVUPD Y2, dispatchBlock_gas(DI)(AX*8)
	VMULPD Y6, Y1, Y2
	VDIVPD Y11, Y2, Y2
	VSUBPD Y2, Y6, Y2
	VBLENDVPD Y15, Y6, Y2, Y2
	VMOVUPD Y2, dispatchBlock_oil(DI)(AX*8)
	VMULPD Y7, Y1, Y2
	VDIVPD Y12, Y2, Y2
	VADDPD Y2, Y7, Y2
	VBLENDVPD Y15, Y7, Y2, Y2
	VMOVUPD Y2, dispatchBlock_solar(DI)(AX*8)
	VMULPD Y14, Y1, Y2
	VDIVPD Y12, Y2, Y2
	VADDPD Y2, Y14, Y2
	VBLENDVPD Y15, Y14, Y2, Y2
	VMOVUPD Y2, dispatchBlock_wind(DI)(AX*8)
	VADDPD four<>(SB), Y0, Y0
	ADDQ $4, AX
	JMP  driftLoop
driftDone:
	STAGE_EPILOGUE

// func levelVec(b *dispatchBlock, i int) int
//
// solarGen = solar·irr/irrMean and windGen = wind·windCF/windMean (0
// where the mean is not positive); res = demand - solarGen - windGen -
// (mustRun + coalBaseload·coal); level = res/flex where res > 0, flex >
// 0 and the quotient is positive and finite, else 0; logs = level, or 1
// where level is 0. No lane stops it.
TEXT ·levelVec(SB), NOSPLIT, $0-24
	STAGE_PROLOGUE
	MOVQ dispatchBlock_irr(DI), R8
	MOVQ dispatchBlock_windCF(DI), R9
	MOVQ dispatchBlock_demand(DI), R10
	VXORPD Y15, Y15, Y15
	VBROADCASTSD dispatchBlock_irrMean(DI), Y8
	VCMPPD $0x1e, Y15, Y8, Y9 // GT_OQ
	VBROADCASTSD dispatchBlock_windMean(DI), Y10
	VCMPPD $0x1e, Y15, Y10, Y11
	VBROADCASTSD dispatchBlock_mustRun(DI), Y12
	VBROADCASTSD dispatchBlock_hydro(DI), Y13
	VBROADCASTSD dispatchBlock_baseloadFrac(DI), Y14
levelLoop:
	CMPQ AX, CX
	JGT  levelDone
	VMOVUPD dispatchBlock_solar(DI)(AX*8), Y0
	VMULPD (R8)(AX*8), Y0, Y0
	VDIVPD Y8, Y0, Y0
	VANDPD Y9, Y0, Y0
	VMOVUPD Y0, dispatchBlock_solarOut(DI)(AX*8)
	VMOVUPD dispatchBlock_wind(DI)(AX*8), Y1
	VMULPD (R9)(AX*8), Y1, Y1
	VDIVPD Y10, Y1, Y1
	VANDPD Y11, Y1, Y1
	VMOVUPD Y1, dispatchBlock_windOut(DI)(AX*8)
	VMOVUPD (R10)(AX*8), Y2
	VSUBPD Y0, Y2, Y2
	VSUBPD Y1, Y2, Y2
	VMOVUPD dispatchBlock_coal(DI)(AX*8), Y3
	VMULPD Y14, Y3, Y4
	VADDPD Y12, Y4, Y4
	VSUBPD Y4, Y2, Y2
	VMOVUPD Y2, dispatchBlock_residual(DI)(AX*8)
	// flex = hydro + (1-coalBaseload)·coal + gas + oil
	VBROADCASTSD dispatchBlock_flexFrac(DI), Y4
	VMULPD Y4, Y3, Y3
	VADDPD Y13, Y3, Y3
	VADDPD dispatchBlock_gas(DI)(AX*8), Y3, Y3
	VADDPD dispatchBlock_oil(DI)(AX*8), Y3, Y3
	VDIVPD Y3, Y2, Y4
	VCMPPD $0x1e, Y15, Y2, Y5 // res > 0
	VCMPPD $0x1e, Y15, Y3, Y6 // flex > 0
	VANDPD Y6, Y5, Y5
	VCMPPD $0x1e, Y15, Y4, Y6 // level > 0
	VANDPD Y6, Y5, Y5
	VCMPPD $0x12, logMax<>(SB), Y4, Y6 // LE_OQ: finite
	VANDPD Y6, Y5, Y5
	VANDPD Y5, Y4, Y6
	VMOVUPD Y6, dispatchBlock_level(DI)(AX*8)
	VMOVUPD one<>(SB), Y6
	VBLENDVPD Y5, Y4, Y6, Y6
	VMOVUPD Y6, dispatchBlock_logs(DI)(AX*8)
	ADDQ $4, AX
	JMP  levelLoop
levelDone:
	STAGE_EPILOGUE

// func tiltVec(b *dispatchBlock, i int) int
//
// lg = log(logs); hydroExp, coalFlexExp, peakerExp = exp(hydroFrac·lg),
// exp(coalFlexFrac·lg), exp(peakerFrac·lg), each argument in its body's
// safe range. logs is read only.
TEXT ·tiltVec(SB), NOSPLIT, $0-24
	STAGE_PROLOGUE
	VBROADCASTSD ·hydroFrac(SB), Y13
	VBROADCASTSD ·coalFlexFrac(SB), Y14
	VBROADCASTSD ·peakerFrac(SB), Y15
tiltLoop:
	CMPQ AX, CX
	JGT  tiltDone
	VMOVUPD dispatchBlock_logs(DI)(AX*8), Y0
	LOG_SAFE(Y0, tiltDone)
	LOG_BODY
	VMULPD Y13, Y1, Y8
	VMULPD Y14, Y1, Y9
	VMULPD Y15, Y1, Y10
	EXP_SAFE(Y8, tiltDone)
	EXP_SAFE(Y9, tiltDone)
	EXP_SAFE(Y10, tiltDone)
	VMOVUPD Y8, Y0
	EXP_BODY
	VMOVUPD Y0, Y8
	VMOVUPD Y9, Y0
	EXP_BODY
	VMOVUPD Y0, Y9
	VMOVUPD Y10, Y0
	EXP_BODY
	VMOVUPD Y8, dispatchBlock_hydroExp(DI)(AX*8)
	VMOVUPD Y9, dispatchBlock_coalFlexExp(DI)(AX*8)
	VMOVUPD Y0, dispatchBlock_peakerExp(DI)(AX*8)
	ADDQ $4, AX
	JMP  tiltLoop
tiltDone:
	STAGE_EPILOGUE

// func flexVec(b *dispatchBlock, i int) int
//
// Per lane, the oversupply curtailment (res < 0) or the tilted split
// (level > 0) — Frexp(level), the four powers by scaleByPow2 and the
// rescale to the residual — then the total, emissions and intensity. A
// group stops it where a lane takes neither — res = ±0 (math.Min's rule
// for signed zeros), or res > 0 at level 0 (the full-mix path) — or has
// a power's binary exponent outside [-1022, 1023] (Ldexp; a subnormal
// level, which Frexp would normalise, is among them), a tilted sum ≤ 0
// or a total ≤ 0 (a degenerate hour). Y14 gathers those lanes, Y12 is
// the tilt mask, Y15 zero.
TEXT ·flexVec(SB), NOSPLIT, $0-24
	STAGE_PROLOGUE
	MOVQ dispatchBlock_ci(DI), R11
	VXORPD Y15, Y15, Y15
flexLoop:
	CMPQ AX, CX
	JGT  flexDone
	VMOVUPD dispatchBlock_residual(DI)(AX*8), Y0
	VMOVUPD dispatchBlock_level(DI)(AX*8), Y1
	// A lane neither oversupplied (res < 0) nor tilted (level > 0):
	// res = ±0, the full-mix path, or a NaN.
	VCMPPD $0x11, Y15, Y0, Y13 // LT_OQ
	VCMPPD $0x1e, Y15, Y1, Y12 // GT_OQ
	VORPD Y12, Y13, Y14
	VPCMPEQQ Y11, Y11, Y11
	VPXOR Y11, Y14, Y14
	// The untilted lanes take level 1, not 0, whose Frexp and powers
	// would run through subnormals, microcode-slow on many cores.
	VMOVUPD one<>(SB), Y2
	VBLENDVPD Y12, Y1, Y2, Y1

	// x1, xe = Frexp(level) for a normal level: xe = its biased
	// exponent - 1022; x1 = its mantissa in [½, 1). A subnormal level
	// has exponent field 0, so sqe below is under -2043 and the range
	// check stops the group before Frexp's normalisation is missed.
	VPSRLQ $52, Y1, Y2
	VPSUBQ frexpBias<>(SB), Y2, Y2
	VANDPD logMant<>(SB), Y1, Y1
	VORPD half<>(SB), Y1, Y1
	VPCMPGTQ pow2Max<>(SB), Y2, Y11 // xe > 1023
	// sq, sqe = x1·x1, 2·xe, renormalised when sq < ½.
	VMULPD Y1, Y1, Y3
	VCMPPD $0x11, half<>(SB), Y3, Y4 // LT_OQ
	VADDPD Y3, Y3, Y5
	VBLENDVPD Y4, Y5, Y3, Y3
	VPADDQ Y2, Y2, Y5
	VPADDQ Y4, Y5, Y5 // the mask is -1 where sq < ½
	VPCMPGTQ pow2Max<>(SB), Y5, Y4
	VPOR Y4, Y11, Y11
	VMOVDQU pow2Min<>(SB), Y4
	VPCMPGTQ Y5, Y4, Y4
	VPOR Y4, Y11, Y11
	// oil's exponent, xe + sqe.
	VPADDQ Y2, Y5, Y6
	VPCMPGTQ pow2Max<>(SB), Y6, Y4
	VPOR Y4, Y11, Y11
	VMOVDQU pow2Min<>(SB), Y4
	VPCMPGTQ Y6, Y4, Y4
	VPOR Y4, Y11, Y11
	VANDPD Y12, Y11, Y11
	VORPD Y11, Y14, Y14
	// 2^xe, 2^sqe, 2^(xe+sqe) from their biased exponents' bits.
	VPADDQ expBias<>(SB), Y2, Y2
	VPSLLQ $52, Y2, Y2
	VPADDQ expBias<>(SB), Y5, Y5
	VPSLLQ $52, Y5, Y5
	VPADDQ expBias<>(SB), Y6, Y6
	VPSLLQ $52, Y6, Y6

	// hydro = hydroShare·((hydroExp·x1)·2^xe)
	VMULPD dispatchBlock_hydroExp(DI)(AX*8), Y1, Y7
	VMULPD Y2, Y7, Y7
	VBROADCASTSD dispatchBlock_hydro(DI), Y8
	VMULPD Y7, Y8, Y7
	// coalFlex = (1-coalBaseload)·coal·((coalFlexExp·x1)·2^xe)
	VMOVUPD dispatchBlock_coal(DI)(AX*8), Y9
	VBROADCASTSD dispatchBlock_flexFrac(DI), Y8
	VMULPD Y9, Y8, Y8
	VMULPD dispatchBlock_coalFlexExp(DI)(AX*8), Y1, Y10
	VMULPD Y2, Y10, Y10
	VMULPD Y10, Y8, Y8
	// gas = gasShare·((peakerExp·sq)·2^sqe)
	VMOVUPD dispatchBlock_peakerExp(DI)(AX*8), Y10
	VMULPD Y3, Y10, Y2
	VMULPD Y5, Y2, Y2
	VMULPD dispatchBlock_gas(DI)(AX*8), Y2, Y2
	// oil = oilShare·(((peakerExp·x1)·sq)·2^(xe+sqe))
	VMULPD Y1, Y10, Y10
	VMULPD Y3, Y10, Y10
	VMULPD Y6, Y10, Y10
	VMULPD dispatchBlock_oil(DI)(AX*8), Y10, Y10
	// rescaleFlexible: each times res / (hydro + coalFlex + gas + oil),
	// and 0 off the tilted lanes; a tilted sum ≤ 0 (subnormal shares
	// whose products round to 0) is its other branch.
	VADDPD Y8, Y7, Y1
	VADDPD Y2, Y1, Y1
	VADDPD Y10, Y1, Y1
	VCMPPD $0x12, Y15, Y1, Y3 // LE_OQ
	VANDPD Y12, Y3, Y3
	VORPD Y3, Y14, Y14
	VDIVPD Y1, Y0, Y1
	VMULPD Y1, Y7, Y7
	VANDPD Y12, Y7, Y7
	VMULPD Y1, Y8, Y8
	VANDPD Y12, Y8, Y8
	VMULPD Y1, Y2, Y2
	VANDPD Y12, Y2, Y2
	VMULPD Y1, Y10, Y10
	VANDPD Y12, Y10, Y10

	// Oversupply (res < 0, Y13): curtail wind, then solar, then
	// must-run coal, each by Min(excess, it) — excess is never -0 here,
	// so VMINPD's rule for two zeros is math.Min's.
	VCMPPD $0x11, Y15, Y0, Y13
	VBROADCASTSD dispatchBlock_baseloadFrac(DI), Y1
	VMULPD Y9, Y1, Y9 // coalBase
	VBROADCASTSD dispatchBlock_mustRun(DI), Y1
	VADDPD Y9, Y1, Y1 // baseload
	VMOVUPD dispatchBlock_solarOut(DI)(AX*8), Y3
	VMOVUPD dispatchBlock_windOut(DI)(AX*8), Y4
	VXORPD cosSign<>(SB), Y0, Y5 // excess = -res
	VMINPD Y4, Y5, Y6
	VSUBPD Y6, Y4, Y11
	VBLENDVPD Y13, Y11, Y4, Y4
	VSUBPD Y6, Y5, Y5
	VMINPD Y3, Y5, Y6
	VSUBPD Y6, Y3, Y11
	VBLENDVPD Y13, Y11, Y3, Y3
	VSUBPD Y6, Y5, Y5
	VMINPD Y9, Y5, Y6
	VSUBPD Y6, Y9, Y11
	VBLENDVPD Y13, Y11, Y9, Y9
	VSUBPD Y6, Y1, Y11
	VBLENDVPD Y13, Y11, Y1, Y1

	// coalGen = coalBase + coalFlex; total = solar + wind + baseload -
	// coalBase + hydro + coalGen + gas + oil.
	VADDPD Y8, Y9, Y8
	VADDPD Y4, Y3, Y0
	VADDPD Y1, Y0, Y0
	VSUBPD Y9, Y0, Y0
	VADDPD Y7, Y0, Y0
	VADDPD Y8, Y0, Y0
	VADDPD Y2, Y0, Y0
	VADDPD Y10, Y0, Y0
	VCMPPD $0x12, Y15, Y0, Y5 // LE_OQ
	VORPD Y5, Y14, Y14
	VMOVMSKPD Y14, DX
	TESTL DX, DX
	JNZ  flexDone

	// em, summed in the Go loop's order; ci = em / total.
	VBROADCASTSD dispatchBlock_coalEF(DI), Y5
	VMULPD Y5, Y8, Y5
	VBROADCASTSD dispatchBlock_gasEF(DI), Y6
	VMULPD Y6, Y2, Y6
	VADDPD Y6, Y5, Y5
	VBROADCASTSD dispatchBlock_oilEF(DI), Y6
	VMULPD Y6, Y10, Y6
	VADDPD Y6, Y5, Y5
	VBROADCASTSD dispatchBlock_solarEF(DI), Y6
	VMULPD Y6, Y3, Y6
	VADDPD Y6, Y5, Y5
	VBROADCASTSD dispatchBlock_windEF(DI), Y6
	VMULPD Y6, Y4, Y6
	VADDPD Y6, Y5, Y5
	VBROADCASTSD dispatchBlock_hydroEF(DI), Y6
	VMULPD Y6, Y7, Y6
	VADDPD Y6, Y5, Y5
	VBROADCASTSD dispatchBlock_nuclearEm(DI), Y6
	VADDPD Y6, Y5, Y5
	VBROADCASTSD dispatchBlock_geothermalEm(DI), Y6
	VADDPD Y6, Y5, Y5
	VBROADCASTSD dispatchBlock_biomassEm(DI), Y6
	VADDPD Y6, Y5, Y5
	VDIVPD Y0, Y5, Y5
	VMOVUPD Y5, (R11)(AX*8)
	ADDQ $4, AX
	JMP  flexLoop
flexDone:
	STAGE_EPILOGUE

// The stage kernels of drawWeather.

// func sunVec(irr, demand []float64, day *sunDay, hod int) int
//
// irr = sinSin + cosCos·cosHourAngle[hod], 0 where negative; demand =
// 1 + diurnal[hod] + weekly + seasonal; over the hours left in the day.
TEXT ·sunVec(SB), NOSPLIT, $0-72
	MOVQ irr_base+0(FP), SI
	MOVQ irr_len+8(FP), CX
	MOVQ demand_base+24(FP), R8
	MOVQ day+48(FP), DI
	MOVQ hod+56(FP), DX
	MOVQ $24, R9
	SUBQ DX, R9
	CMPQ R9, CX
	CMOVQLT R9, CX
	SUBQ $4, CX
	XORQ AX, AX
	LEAQ sunDay_cosHourAngle(DI)(DX*8), R10
	LEAQ sunDay_diurnal(DI)(DX*8), R11
	VBROADCASTSD sunDay_sinSin(DI), Y8
	VBROADCASTSD sunDay_cosCos(DI), Y9
	VBROADCASTSD sunDay_weekly(DI), Y10
	VBROADCASTSD sunDay_seasonal(DI), Y11
	VXORPD Y12, Y12, Y12
	VMOVUPD one<>(SB), Y13
sunLoop:
	CMPQ AX, CX
	JGT  sunDone
	VMULPD (R10)(AX*8), Y9, Y0
	VADDPD Y0, Y8, Y0
	VMAXPD Y0, Y12, Y0 // 0 > x ? 0 : x, so -0 and NaN stay
	VMOVUPD Y0, (SI)(AX*8)
	VADDPD (R11)(AX*8), Y13, Y1
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y1, Y1
	VMOVUPD Y1, (R8)(AX*8)
	ADDQ $4, AX
	JMP  sunLoop
sunDone:
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET

// func normVec(out, cosArgs []float64, mean, stddev float64) int
//
// out = NormOf(mean, stddev, log(out), cos(cosArgs)) = mean +
// stddev·(Sqrt(-2·log)·cos), both arguments in their bodies' safe range.
TEXT ·normVec(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), SI
	MOVQ out_len+8(FP), CX
	MOVQ cosArgs_base+24(FP), R8
	XORQ AX, AX
	SUBQ $4, CX
	VBROADCASTSD mean+48(FP), Y12
	VBROADCASTSD stddev+56(FP), Y13
normLoop:
	CMPQ AX, CX
	JGT  normDone
	VMOVUPD (SI)(AX*8), Y9
	LOG_SAFE(Y9, normDone)
	VMOVUPD (R8)(AX*8), Y10
	COS_SAFE(Y10, normDone)
	VMOVUPD Y9, Y0
	LOG_BODY
	VMOVUPD Y1, Y8
	VMOVUPD Y10, Y0
	COS_BODY
	VMULPD minusTwo<>(SB), Y8, Y8
	VSQRTPD Y8, Y8
	VMULPD Y6, Y8, Y8
	VMULPD Y8, Y13, Y8
	VADDPD Y8, Y12, Y8
	VMOVUPD Y8, (SI)(AX*8)
	ADDQ $4, AX
	JMP  normLoop
normDone:
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET

// func logisticVec(irr, wind, cloudE, windE []float64) int
//
// irr *= 0.25 + 0.75/(1 + exp(cloudE)); wind = 1/(1 + exp(windE)), both
// arguments in EXP_BODY's safe range. cloudE and windE are read only.
TEXT ·logisticVec(SB), NOSPLIT, $0-104
	MOVQ irr_base+0(FP), SI
	MOVQ irr_len+8(FP), CX
	MOVQ wind_base+24(FP), DI
	MOVQ cloudE_base+48(FP), R8
	MOVQ windE_base+72(FP), R9
	XORQ AX, AX
	SUBQ $4, CX
logisticLoop:
	CMPQ AX, CX
	JGT  logisticDone
	VMOVUPD (R8)(AX*8), Y9
	EXP_SAFE(Y9, logisticDone)
	VMOVUPD (R9)(AX*8), Y10
	EXP_SAFE(Y10, logisticDone)
	VMOVUPD Y9, Y0
	EXP_BODY
	VADDPD one<>(SB), Y0, Y0
	VMOVUPD threeQuarters<>(SB), Y1
	VDIVPD Y0, Y1, Y1
	VADDPD quarter<>(SB), Y1, Y1
	VMULPD (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (SI)(AX*8)
	VMOVUPD Y10, Y0
	EXP_BODY
	VADDPD one<>(SB), Y0, Y0
	VMOVUPD one<>(SB), Y1
	VDIVPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  logisticLoop
logisticDone:
	VZEROUPPER
	MOVQ AX, ret+96(FP)
	RET
