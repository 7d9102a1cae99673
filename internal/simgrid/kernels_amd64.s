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

// func expVec(xs []float64) int
TEXT ·expVec(SB), NOSPLIT, $0-32
	PROLOGUE
expLoop:
	CMPQ AX, CX
	JGT  expDone
	VMOVUPD (SI)(AX*8), Y0
	// Safe: -708 <= x <= 709, so the exponent k stays in [-1021, 1023]
	// and archExp's ldexp takes its normal path. NaN fails both.
	VCMPPD $0x1d, expLo<>(SB), Y0, Y1 // GE_OQ
	VCMPPD $0x12, expHi<>(SB), Y0, Y2 // LE_OQ
	VANDPD Y1, Y2, Y1
	VMOVMSKPD Y1, DX
	CMPL DX, $15
	JNE  expDone
	// k = round(x·LOG2E), as CVTSD2SL rounds it.
	VMULPD expLog2e<>(SB), Y0, Y1
	VCVTPD2DQY Y1, X3
	VCVTDQ2PD X3, Y2
	// x -= k·LN2U; x -= k·LN2L (fused, as archExp's avxfma path).
	VFNMADD231PD expLn2u<>(SB), Y2, Y0
	VFNMADD231PD expLn2l<>(SB), Y2, Y0
	VMULPD expSixteenth<>(SB), Y0, Y0
	// Taylor series, fused Horner steps.
	VMOVUPD expC64<>(SB), Y1
	VFMADD213PD expC56<>(SB), Y0, Y1
	VFMADD213PD expC48<>(SB), Y0, Y1
	VFMADD213PD expC40<>(SB), Y0, Y1
	VFMADD213PD expC32<>(SB), Y0, Y1
	VFMADD213PD expC24<>(SB), Y0, Y1
	VFMADD213PD half<>(SB), Y0, Y1
	VFMADD213PD one<>(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	// Four squarings of the reduction by 16: x·(x+2), the last fused
	// with the final +1.
	VADDPD two<>(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD two<>(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD two<>(SB), Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD two<>(SB), Y0, Y1
	VFMADD213PD one<>(SB), Y1, Y0
	// × 2^k, built from the biased exponent's bits.
	VPMOVSXDQ X3, Y2
	VPADDQ expBias<>(SB), Y2, Y2
	VPSLLQ $52, Y2, Y2
	VMULPD Y2, Y0, Y0
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
	// Safe: positive, normal and finite. NaN fails both.
	VCMPPD $0x1d, logMin<>(SB), Y0, Y1 // GE_OQ
	VCMPPD $0x12, logMax<>(SB), Y0, Y2 // LE_OQ
	VANDPD Y1, Y2, Y1
	VMOVMSKPD Y1, DX
	CMPL DX, $15
	JNE  logDone
	// f1 = mantissa | 0.5; k = exponent - 0x3FE, converted exactly
	// through 2⁵² + exponent.
	VANDPD logMant<>(SB), Y0, Y2
	VORPD half<>(SB), Y2, Y2
	VPSRLQ $52, Y0, Y1
	VPOR   logTwo52<>(SB), Y1, Y1
	VSUBPD logMagic<>(SB), Y1, Y1
	// if !(HSqrt2 < f1) { k -= 1; f1 *= 2 }: archLog's CMPSD $5 (NLT),
	// with the operands swapped (NGT); f1 is never NaN.
	VCMPPD $0x0a, logHSqrt2<>(SB), Y2, Y3
	VANDPD one<>(SB), Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD one<>(SB), Y3, Y3
	VMULPD Y3, Y2, Y2
	// f = f1 - 1; s = f / (2 + f); s2 = s·s; s4 = s2·s2
	VSUBPD one<>(SB), Y2, Y2
	VADDPD two<>(SB), Y2, Y0
	VDIVPD Y0, Y2, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5
	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4
	// t2 = s4·(L2 + s4·(L4 + s4·L6)); R = t1 + t2
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	// hfsq = 0.5·f·f
	VMULPD half<>(SB), Y2, Y0
	VMULPD Y2, Y0, Y0
	// k·Ln2Hi - ((hfsq - (s·(hfsq+R) + k·Ln2Lo)) - f)
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD logLn2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	VMULPD logLn2Hi<>(SB), Y1, Y1
	VSUBPD Y0, Y1, Y1
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
	VANDPD cosAbs<>(SB), Y0, Y0
	// Safe: |x| < reduceThreshold, so no trigReduce. NaN and ±Inf fail.
	VCMPPD $0x11, cosReduce<>(SB), Y0, Y1 // LT_OQ
	VMOVMSKPD Y1, DX
	CMPL DX, $15
	JNE  cosDone
	// j = uint64(x·(4/Pi)); an odd j and its y move up one; j &= 7.
	VMULPD cosFourOverPi<>(SB), Y0, Y1
	VCVTTPD2DQY Y1, X2
	VPAND cosOddMask<>(SB), X2, X3
	VPADDD X3, X2, X2
	VCVTDQ2PD X2, Y1
	VPAND cosOctant<>(SB), X2, X2
	// z = ((x - y·PI4A) - y·PI4B) - y·PI4C; zz = z·z
	VMULPD cosPI4A<>(SB), Y1, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD cosPI4B<>(SB), Y1, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD cosPI4C<>(SB), Y1, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD Y0, Y0, Y1
	// Sine series: z + z·zz·((((((_sin[0]·zz)+_sin[1])·zz+…)+_sin[5])
	VMULPD cosS0<>(SB), Y1, Y3
	VADDPD cosS1<>(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD cosS2<>(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD cosS3<>(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD cosS4<>(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD cosS5<>(SB), Y3, Y3
	VMULPD Y1, Y0, Y4
	VMULPD Y3, Y4, Y4
	VADDPD Y4, Y0, Y4
	// Cosine series: 1.0 - 0.5·zz + zz·zz·((((((_cos[0]·zz)+…)+_cos[5])
	VMULPD cosC0<>(SB), Y1, Y3
	VADDPD cosC1<>(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD cosC2<>(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD cosC3<>(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD cosC4<>(SB), Y3, Y3
	VMULPD Y1, Y3, Y3
	VADDPD cosC5<>(SB), Y3, Y3
	VMULPD Y1, Y1, Y5
	VMULPD Y3, Y5, Y5
	VMULPD half<>(SB), Y1, Y6
	VMOVUPD one<>(SB), Y7
	VSUBPD Y6, Y7, Y6
	VADDPD Y5, Y6, Y6
	// j is even: octant 2 or 6 takes the sine series, and the sign
	// flips where exactly one of j's bits 1 and 2 is set.
	VPMOVZXDQ X2, Y7
	VPAND cosTwo<>(SB), Y7, Y3
	VPCMPEQQ cosTwo<>(SB), Y3, Y3
	VBLENDVPD Y3, Y4, Y6, Y6
	VPSLLQ $1, Y7, Y3
	VPXOR Y7, Y3, Y3
	VPSLLQ $61, Y3, Y3
	VPAND cosSign<>(SB), Y3, Y3
	VXORPD Y3, Y6, Y6
	VMOVUPD Y6, (SI)(AX*8)
	ADDQ $4, AX
	JMP  cosLoop
cosDone:
	EPILOGUE

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
