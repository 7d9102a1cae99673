// Vector copies of math.Exp, math.Log and math.Cos as Go runs them on
// amd64: the FMA path of math's exp_amd64.s, math's log_amd64.s and the
// pure-Go cos of math/sin.go, each repeated operation for operation —
// the same constants, the same roundings in the same order, an FMA
// exactly where archExp has one and nowhere else — so every lane is the
// scalar function's result bit for bit. Each body comes in two widths:
// four lanes in AVX2 ymm registers, and eight in AVX-512 zmm registers
// (F, DQ and VL), which read the same constants by broadcast (.BCST)
// and hold their range checks and selects in K masks. Each kernel works
// along xs in place, a group of four or eight elements at a time from
// the start, and stops at the first group holding a lane outside its
// safe range (where the scalar code would branch: special values,
// overflow, the denormal ldexp, the Payne–Hanek reduction) or when
// fewer elements than a group remain; it returns how many elements it
// replaced, and kernels.go hands the rest to the narrower kernel and
// then to math. Their bodies are macros, shared with the stage kernels
// at the end of this file, which run simgrid.go's stage loops four or
// eight hours at a time and read their Go structs by go_asm.h's field
// offsets.

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

// PROLOGUE8 is PROLOGUE with CX = len(xs) - 8.
#define PROLOGUE8 \
	PROLOGUE; \
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

// The eight-lane bodies: the macros above in zmm registers, operation
// for operation, each constant broadcast from its four-lane table's
// first element. A *_SAFE8 check jumps to fail unless all eight lanes
// are in the body's range, with K1 the mask of those that are.
#define SAFE8(lo, hi, x, fail) \
	VCMPPD.BCST $0x1d, lo, x, K1; \
	VCMPPD.BCST $0x12, hi, x, K1, K1; \
	KORTESTB K1, K1; \
	JCC  fail

#define EXP_SAFE8(x, fail) SAFE8(expLo<>(SB), expHi<>(SB), x, fail)

#define LOG_SAFE8(x, fail) SAFE8(logMin<>(SB), logMax<>(SB), x, fail)

// EXP_BODY8: Z0 = exp(Z0); clobbers Z1–Z3.
#define EXP_BODY8 \
	VMULPD.BCST expLog2e<>(SB), Z0, Z1; \
	VCVTPD2DQ Z1, Y3; \
	VCVTDQ2PD Y3, Z2; \
	VFNMADD231PD.BCST expLn2u<>(SB), Z2, Z0; \
	VFNMADD231PD.BCST expLn2l<>(SB), Z2, Z0; \
	VMULPD.BCST expSixteenth<>(SB), Z0, Z0; \
	VBROADCASTSD expC64<>(SB), Z1; \
	VFMADD213PD.BCST expC56<>(SB), Z0, Z1; \
	VFMADD213PD.BCST expC48<>(SB), Z0, Z1; \
	VFMADD213PD.BCST expC40<>(SB), Z0, Z1; \
	VFMADD213PD.BCST expC32<>(SB), Z0, Z1; \
	VFMADD213PD.BCST expC24<>(SB), Z0, Z1; \
	VFMADD213PD.BCST half<>(SB), Z0, Z1; \
	VFMADD213PD.BCST one<>(SB), Z0, Z1; \
	VMULPD Z1, Z0, Z0; \
	VADDPD.BCST two<>(SB), Z0, Z1; \
	VMULPD Z1, Z0, Z0; \
	VADDPD.BCST two<>(SB), Z0, Z1; \
	VMULPD Z1, Z0, Z0; \
	VADDPD.BCST two<>(SB), Z0, Z1; \
	VMULPD Z1, Z0, Z0; \
	VADDPD.BCST two<>(SB), Z0, Z1; \
	VFMADD213PD.BCST one<>(SB), Z1, Z0; \
	VPMOVSXDQ Y3, Z2; \
	VPADDQ.BCST expBias<>(SB), Z2, Z2; \
	VPSLLQ $52, Z2, Z2; \
	VMULPD Z2, Z0, Z0

// LOG_BODY8: Z1 = log(Z0); clobbers Z0, Z2–Z6 and K2. The !(HSqrt2 <
// f1) lanes, K2, take k -= 1 and f1 *= 2; the others keep k and f1,
// which LOG_BODY's k - 0 and f1·1 leave exactly as they are.
#define LOG_BODY8 \
	VANDPD.BCST logMant<>(SB), Z0, Z2; \
	VORPD.BCST half<>(SB), Z2, Z2; \
	VPSRLQ $52, Z0, Z1; \
	VPORQ.BCST logTwo52<>(SB), Z1, Z1; \
	VSUBPD.BCST logMagic<>(SB), Z1, Z1; \
	VCMPPD.BCST $0x0a, logHSqrt2<>(SB), Z2, K2; \
	VSUBPD.BCST one<>(SB), Z1, K2, Z1; \
	VMULPD.BCST two<>(SB), Z2, K2, Z2; \
	VSUBPD.BCST one<>(SB), Z2, Z2; \
	VADDPD.BCST two<>(SB), Z2, Z0; \
	VDIVPD Z0, Z2, Z3; \
	VMULPD Z3, Z3, Z4; \
	VMULPD Z4, Z4, Z5; \
	VMULPD.BCST logL7<>(SB), Z5, Z6; \
	VADDPD.BCST logL5<>(SB), Z6, Z6; \
	VMULPD Z5, Z6, Z6; \
	VADDPD.BCST logL3<>(SB), Z6, Z6; \
	VMULPD Z5, Z6, Z6; \
	VADDPD.BCST logL1<>(SB), Z6, Z6; \
	VMULPD Z6, Z4, Z4; \
	VMULPD.BCST logL6<>(SB), Z5, Z6; \
	VADDPD.BCST logL4<>(SB), Z6, Z6; \
	VMULPD Z5, Z6, Z6; \
	VADDPD.BCST logL2<>(SB), Z6, Z6; \
	VMULPD Z6, Z5, Z5; \
	VADDPD Z5, Z4, Z4; \
	VMULPD.BCST half<>(SB), Z2, Z0; \
	VMULPD Z2, Z0, Z0; \
	VADDPD Z0, Z4, Z4; \
	VMULPD Z4, Z3, Z3; \
	VMULPD.BCST logLn2Lo<>(SB), Z1, Z4; \
	VADDPD Z4, Z3, Z3; \
	VSUBPD Z3, Z0, Z0; \
	VSUBPD Z2, Z0, Z0; \
	VMULPD.BCST logLn2Hi<>(SB), Z1, Z1; \
	VSUBPD Z0, Z1, Z1

// COS_SAFE8: x = |x| in place, then |x| < reduceThreshold in all eight
// lanes.
#define COS_SAFE8(x, fail) \
	VANDPD.BCST cosAbs<>(SB), x, x; \
	VCMPPD.BCST $0x11, cosReduce<>(SB), x, K1; \
	KORTESTB K1, K1; \
	JCC  fail

// COS_BODY8: Z6 = cos(Z0) for Z0 = |x|; clobbers Z0–Z5, Z7 and K2. j's
// eight int32s sit in Y2 (their and-masks broadcast, AVX-512 VL); K2
// is the octants of bit 1, which take the sine series.
#define COS_BODY8 \
	VMULPD.BCST cosFourOverPi<>(SB), Z0, Z1; \
	VCVTTPD2DQ Z1, Y2; \
	VPANDD.BCST cosOddMask<>(SB), Y2, Y3; \
	VPADDD Y3, Y2, Y2; \
	VCVTDQ2PD Y2, Z1; \
	VPANDD.BCST cosOctant<>(SB), Y2, Y2; \
	VMULPD.BCST cosPI4A<>(SB), Z1, Z3; \
	VSUBPD Z3, Z0, Z0; \
	VMULPD.BCST cosPI4B<>(SB), Z1, Z3; \
	VSUBPD Z3, Z0, Z0; \
	VMULPD.BCST cosPI4C<>(SB), Z1, Z3; \
	VSUBPD Z3, Z0, Z0; \
	VMULPD Z0, Z0, Z1; \
	VMULPD.BCST cosS0<>(SB), Z1, Z3; \
	VADDPD.BCST cosS1<>(SB), Z3, Z3; \
	VMULPD Z1, Z3, Z3; \
	VADDPD.BCST cosS2<>(SB), Z3, Z3; \
	VMULPD Z1, Z3, Z3; \
	VADDPD.BCST cosS3<>(SB), Z3, Z3; \
	VMULPD Z1, Z3, Z3; \
	VADDPD.BCST cosS4<>(SB), Z3, Z3; \
	VMULPD Z1, Z3, Z3; \
	VADDPD.BCST cosS5<>(SB), Z3, Z3; \
	VMULPD Z1, Z0, Z4; \
	VMULPD Z3, Z4, Z4; \
	VADDPD Z4, Z0, Z4; \
	VMULPD.BCST cosC0<>(SB), Z1, Z3; \
	VADDPD.BCST cosC1<>(SB), Z3, Z3; \
	VMULPD Z1, Z3, Z3; \
	VADDPD.BCST cosC2<>(SB), Z3, Z3; \
	VMULPD Z1, Z3, Z3; \
	VADDPD.BCST cosC3<>(SB), Z3, Z3; \
	VMULPD Z1, Z3, Z3; \
	VADDPD.BCST cosC4<>(SB), Z3, Z3; \
	VMULPD Z1, Z3, Z3; \
	VADDPD.BCST cosC5<>(SB), Z3, Z3; \
	VMULPD Z1, Z1, Z5; \
	VMULPD Z3, Z5, Z5; \
	VMULPD.BCST half<>(SB), Z1, Z6; \
	VBROADCASTSD one<>(SB), Z7; \
	VSUBPD Z6, Z7, Z6; \
	VADDPD Z5, Z6, Z6; \
	VPMOVZXDQ Y2, Z7; \
	VPTESTMQ.BCST cosTwo<>(SB), Z7, K2; \
	VBLENDMPD Z4, Z6, K2, Z6; \
	VPSLLQ $1, Z7, Z3; \
	VPXORQ Z7, Z3, Z3; \
	VPSLLQ $61, Z3, Z3; \
	VPANDQ.BCST cosSign<>(SB), Z3, Z3; \
	VXORPD Z3, Z6, Z6

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

// func expVec8(xs []float64) int
TEXT ·expVec8(SB), NOSPLIT, $0-32
	PROLOGUE8
exp8Loop:
	CMPQ AX, CX
	JGT  exp8Done
	VMOVUPD (SI)(AX*8), Z0
	EXP_SAFE8(Z0, exp8Done)
	EXP_BODY8
	VMOVUPD Z0, (SI)(AX*8)
	ADDQ $8, AX
	JMP  exp8Loop
exp8Done:
	EPILOGUE

// func logVec8(xs []float64) int
TEXT ·logVec8(SB), NOSPLIT, $0-32
	PROLOGUE8
log8Loop:
	CMPQ AX, CX
	JGT  log8Done
	VMOVUPD (SI)(AX*8), Z0
	LOG_SAFE8(Z0, log8Done)
	LOG_BODY8
	VMOVUPD Z1, (SI)(AX*8)
	ADDQ $8, AX
	JMP  log8Loop
log8Done:
	EPILOGUE

// func cosVec8(xs []float64) int
TEXT ·cosVec8(SB), NOSPLIT, $0-32
	PROLOGUE8
cos8Loop:
	CMPQ AX, CX
	JGT  cos8Done
	VMOVUPD (SI)(AX*8), Z0
	COS_SAFE8(Z0, cos8Done)
	COS_BODY8
	VMOVUPD Z6, (SI)(AX*8)
	ADDQ $8, AX
	JMP  cos8Loop
cos8Done:
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

// func tiltVec8(b *dispatchBlock, i int) int
//
// tiltVec, eight hours at a time.
TEXT ·tiltVec8(SB), NOSPLIT, $0-24
	STAGE_PROLOGUE
	SUBQ $4, CX
	VBROADCASTSD ·hydroFrac(SB), Z13
	VBROADCASTSD ·coalFlexFrac(SB), Z14
	VBROADCASTSD ·peakerFrac(SB), Z15
tilt8Loop:
	CMPQ AX, CX
	JGT  tilt8Done
	VMOVUPD dispatchBlock_logs(DI)(AX*8), Z0
	LOG_SAFE8(Z0, tilt8Done)
	LOG_BODY8
	VMULPD Z13, Z1, Z8
	VMULPD Z14, Z1, Z9
	VMULPD Z15, Z1, Z10
	EXP_SAFE8(Z8, tilt8Done)
	EXP_SAFE8(Z9, tilt8Done)
	EXP_SAFE8(Z10, tilt8Done)
	VMOVAPD Z8, Z0
	EXP_BODY8
	VMOVAPD Z0, Z8
	VMOVAPD Z9, Z0
	EXP_BODY8
	VMOVAPD Z0, Z9
	VMOVAPD Z10, Z0
	EXP_BODY8
	VMOVUPD Z8, dispatchBlock_hydroExp(DI)(AX*8)
	VMOVUPD Z9, dispatchBlock_coalFlexExp(DI)(AX*8)
	VMOVUPD Z0, dispatchBlock_peakerExp(DI)(AX*8)
	ADDQ $8, AX
	JMP  tilt8Loop
tilt8Done:
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

// func flexVec8(b *dispatchBlock, i int) int
//
// flexVec, eight hours at a time, its lane masks in K registers: K3
// the oversupplied lanes, K2 the tilted, K5 those with a power's
// exponent out of range, K4 the lanes that stop the group. Each blend
// of flexVec is a masked operation here — a merge where it keeps the
// other operand, a zeroing where it ands with the mask — and the
// exponent arithmetic's -1 where sq < ½ is the mask as a vector
// (VPMOVM2Q), as in flexVec.
TEXT ·flexVec8(SB), NOSPLIT, $0-24
	STAGE_PROLOGUE
	SUBQ $4, CX
	MOVQ dispatchBlock_ci(DI), R11
	VPXORQ Z15, Z15, Z15
flex8Loop:
	CMPQ AX, CX
	JGT  flex8Done
	VMOVUPD dispatchBlock_residual(DI)(AX*8), Z0
	VMOVUPD dispatchBlock_level(DI)(AX*8), Z1
	VCMPPD $0x11, Z15, Z0, K3 // LT_OQ
	VCMPPD $0x1e, Z15, Z1, K2 // GT_OQ
	KORB K2, K3, K4
	KNOTB K4, K4
	VBROADCASTSD one<>(SB), Z2
	VBLENDMPD Z1, Z2, K2, Z1

	// Frexp(level), sq and sqe, oil's exponent, and the range checks.
	VPSRLQ $52, Z1, Z2
	VPSUBQ.BCST frexpBias<>(SB), Z2, Z2
	VANDPD.BCST logMant<>(SB), Z1, Z1
	VORPD.BCST half<>(SB), Z1, Z1
	VPCMPGTQ.BCST pow2Max<>(SB), Z2, K5
	VMULPD Z1, Z1, Z3
	VCMPPD.BCST $0x11, half<>(SB), Z3, K6
	VADDPD Z3, Z3, Z5
	VBLENDMPD Z5, Z3, K6, Z3
	VPADDQ Z2, Z2, Z5
	VPMOVM2Q K6, Z4
	VPADDQ Z4, Z5, Z5
	VPCMPGTQ.BCST pow2Max<>(SB), Z5, K1
	KORB K1, K5, K5
	VPBROADCASTQ pow2Min<>(SB), Z4
	VPCMPGTQ Z5, Z4, K1
	KORB K1, K5, K5
	VPADDQ Z2, Z5, Z6
	VPCMPGTQ.BCST pow2Max<>(SB), Z6, K1
	KORB K1, K5, K5
	VPCMPGTQ Z6, Z4, K1
	KORB K1, K5, K5
	KANDB K2, K5, K5
	KORB K5, K4, K4
	VPADDQ.BCST expBias<>(SB), Z2, Z2
	VPSLLQ $52, Z2, Z2
	VPADDQ.BCST expBias<>(SB), Z5, Z5
	VPSLLQ $52, Z5, Z5
	VPADDQ.BCST expBias<>(SB), Z6, Z6
	VPSLLQ $52, Z6, Z6

	// hydro, coalFlex, gas and oil, then the rescale.
	VMULPD dispatchBlock_hydroExp(DI)(AX*8), Z1, Z7
	VMULPD Z2, Z7, Z7
	VBROADCASTSD dispatchBlock_hydro(DI), Z8
	VMULPD Z7, Z8, Z7
	VMOVUPD dispatchBlock_coal(DI)(AX*8), Z9
	VBROADCASTSD dispatchBlock_flexFrac(DI), Z8
	VMULPD Z9, Z8, Z8
	VMULPD dispatchBlock_coalFlexExp(DI)(AX*8), Z1, Z10
	VMULPD Z2, Z10, Z10
	VMULPD Z10, Z8, Z8
	VMOVUPD dispatchBlock_peakerExp(DI)(AX*8), Z10
	VMULPD Z3, Z10, Z2
	VMULPD Z5, Z2, Z2
	VMULPD dispatchBlock_gas(DI)(AX*8), Z2, Z2
	VMULPD Z1, Z10, Z10
	VMULPD Z3, Z10, Z10
	VMULPD Z6, Z10, Z10
	VMULPD dispatchBlock_oil(DI)(AX*8), Z10, Z10
	VADDPD Z8, Z7, Z1
	VADDPD Z2, Z1, Z1
	VADDPD Z10, Z1, Z1
	VCMPPD $0x12, Z15, Z1, K2, K1 // LE_OQ, on the tilted lanes
	KORB K1, K4, K4
	VDIVPD Z1, Z0, Z1
	VMULPD.Z Z1, Z7, K2, Z7
	VMULPD.Z Z1, Z8, K2, Z8
	VMULPD.Z Z1, Z2, K2, Z2
	VMULPD.Z Z1, Z10, K2, Z10

	// Oversupply: wind, solar and must-run coal curtailed on K3.
	VBROADCASTSD dispatchBlock_baseloadFrac(DI), Z1
	VMULPD Z9, Z1, Z9
	VBROADCASTSD dispatchBlock_mustRun(DI), Z1
	VADDPD Z9, Z1, Z1
	VMOVUPD dispatchBlock_solarOut(DI)(AX*8), Z3
	VMOVUPD dispatchBlock_windOut(DI)(AX*8), Z4
	VXORPD.BCST cosSign<>(SB), Z0, Z5
	VMINPD Z4, Z5, Z6
	VSUBPD Z6, Z4, K3, Z4
	VSUBPD Z6, Z5, Z5
	VMINPD Z3, Z5, Z6
	VSUBPD Z6, Z3, K3, Z3
	VSUBPD Z6, Z5, Z5
	VMINPD Z9, Z5, Z6
	VSUBPD Z6, Z9, K3, Z9
	VSUBPD Z6, Z1, K3, Z1

	// The total; then em and ci, as flexVec.
	VADDPD Z8, Z9, Z8
	VADDPD Z4, Z3, Z0
	VADDPD Z1, Z0, Z0
	VSUBPD Z9, Z0, Z0
	VADDPD Z7, Z0, Z0
	VADDPD Z8, Z0, Z0
	VADDPD Z2, Z0, Z0
	VADDPD Z10, Z0, Z0
	VCMPPD $0x12, Z15, Z0, K1 // LE_OQ
	KORB K1, K4, K4
	KORTESTB K4, K4
	JNE  flex8Done
	VBROADCASTSD dispatchBlock_coalEF(DI), Z5
	VMULPD Z5, Z8, Z5
	VBROADCASTSD dispatchBlock_gasEF(DI), Z6
	VMULPD Z6, Z2, Z6
	VADDPD Z6, Z5, Z5
	VBROADCASTSD dispatchBlock_oilEF(DI), Z6
	VMULPD Z6, Z10, Z6
	VADDPD Z6, Z5, Z5
	VBROADCASTSD dispatchBlock_solarEF(DI), Z6
	VMULPD Z6, Z3, Z6
	VADDPD Z6, Z5, Z5
	VBROADCASTSD dispatchBlock_windEF(DI), Z6
	VMULPD Z6, Z4, Z6
	VADDPD Z6, Z5, Z5
	VBROADCASTSD dispatchBlock_hydroEF(DI), Z6
	VMULPD Z6, Z7, Z6
	VADDPD Z6, Z5, Z5
	VBROADCASTSD dispatchBlock_nuclearEm(DI), Z6
	VADDPD Z6, Z5, Z5
	VBROADCASTSD dispatchBlock_geothermalEm(DI), Z6
	VADDPD Z6, Z5, Z5
	VBROADCASTSD dispatchBlock_biomassEm(DI), Z6
	VADDPD Z6, Z5, Z5
	VDIVPD Z0, Z5, Z5
	VMOVUPD Z5, (R11)(AX*8)
	ADDQ $8, AX
	JMP  flex8Loop
flex8Done:
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

// func normVec8(out, cosArgs []float64, mean, stddev float64) int
//
// normVec, eight draws at a time.
TEXT ·normVec8(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), SI
	MOVQ out_len+8(FP), CX
	MOVQ cosArgs_base+24(FP), R8
	XORQ AX, AX
	SUBQ $8, CX
	VBROADCASTSD mean+48(FP), Z12
	VBROADCASTSD stddev+56(FP), Z13
norm8Loop:
	CMPQ AX, CX
	JGT  norm8Done
	VMOVUPD (SI)(AX*8), Z9
	LOG_SAFE8(Z9, norm8Done)
	VMOVUPD (R8)(AX*8), Z10
	COS_SAFE8(Z10, norm8Done)
	VMOVAPD Z9, Z0
	LOG_BODY8
	VMOVAPD Z1, Z8
	VMOVAPD Z10, Z0
	COS_BODY8
	VMULPD.BCST minusTwo<>(SB), Z8, Z8
	VSQRTPD Z8, Z8
	VMULPD Z6, Z8, Z8
	VMULPD Z8, Z13, Z8
	VADDPD Z8, Z12, Z8
	VMOVUPD Z8, (SI)(AX*8)
	ADDQ $8, AX
	JMP  norm8Loop
norm8Done:
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

// func logisticVec8(irr, wind, cloudE, windE []float64) int
//
// logisticVec, eight hours at a time.
TEXT ·logisticVec8(SB), NOSPLIT, $0-104
	MOVQ irr_base+0(FP), SI
	MOVQ irr_len+8(FP), CX
	MOVQ wind_base+24(FP), DI
	MOVQ cloudE_base+48(FP), R8
	MOVQ windE_base+72(FP), R9
	XORQ AX, AX
	SUBQ $8, CX
logistic8Loop:
	CMPQ AX, CX
	JGT  logistic8Done
	VMOVUPD (R8)(AX*8), Z9
	EXP_SAFE8(Z9, logistic8Done)
	VMOVUPD (R9)(AX*8), Z10
	EXP_SAFE8(Z10, logistic8Done)
	VMOVAPD Z9, Z0
	EXP_BODY8
	VADDPD.BCST one<>(SB), Z0, Z0
	VBROADCASTSD threeQuarters<>(SB), Z1
	VDIVPD Z0, Z1, Z1
	VADDPD.BCST quarter<>(SB), Z1, Z1
	VMULPD (SI)(AX*8), Z1, Z1
	VMOVUPD Z1, (SI)(AX*8)
	VMOVAPD Z10, Z0
	EXP_BODY8
	VADDPD.BCST one<>(SB), Z0, Z0
	VBROADCASTSD one<>(SB), Z1
	VDIVPD Z0, Z1, Z1
	VMOVUPD Z1, (DI)(AX*8)
	ADDQ $8, AX
	JMP  logistic8Loop
logistic8Done:
	VZEROUPPER
	MOVQ AX, ret+96(FP)
	RET
