//go:build amd64 && !purego

// expAVX2: expPortable (exp.go) four float64 lanes at a time. Each lane
// runs the portable sequence's operations in its order — one VMULPD per
// float64(x*y), one VADDPD or VSUBPD per add, never fused — so a lane
// gives the portable bits exactly:
//
//	k  = cvt(x·log2e)                 VCVTPD2DQ: nearest-even, as CVTSD2SL
//	r  = ((x − ln2hi·k) − ln2lo·k)·1/16
//	p  = Horner(c8 … c2, 1) in r;  s = p·r
//	s  = s·(2 + s), four times;  s = s + 1
//	e  = k + 1023;  result = s·2**(e−1023), the bits e<<52
//
// The kernel covers the lanes whose e lies in [1, 2046], the normal
// range of that last factor. NaN and ±Inf convert to MinInt32 and a
// value above the overflow bound to k ≥ 1024, so every lane the
// portable sequence sends to a special case falls outside it: the
// kernel then stops at that group, before it stores it, and returns
// how many lanes it finished. n is a positive multiple of 4.
//
// Dispatch requires cpu.AVX2 (VPMOVZXDQ on a YMM destination).

#include "textflag.h"

#define BCAST(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BCAST(explog2e, 1.4426950408889634073599246810018920)
BCAST(expln2hi, 0.69314718055966295651160180568695068359375)
BCAST(expln2lo, 0.28235290563031577122588448175013436025525412068e-12)
BCAST(expsixteenth, 0.0625)
BCAST(expc8, 2.4801587301587301587e-5)
BCAST(expc7, 1.9841269841269841270e-4)
BCAST(expc6, 1.3888888888888888889e-3)
BCAST(expc5, 8.3333333333333333333e-3)
BCAST(expc4, 4.1666666666666666667e-2)
BCAST(expc3, 1.6666666666666666667e-1)
BCAST(expc2, 0.5)
BCAST(expone, 1.0)
BCAST(exptwo, 2.0)

// The int32 bounds of the range check: e > 0 and 2047 > e.
DATA expbias<>+0(SB)/4, $0x3FF
DATA expbias<>+4(SB)/4, $0x3FF
DATA expbias<>+8(SB)/4, $0x3FF
DATA expbias<>+12(SB)/4, $0x3FF
GLOBL expbias<>(SB), RODATA|NOPTR, $16
DATA expemax<>+0(SB)/4, $0x7FF
DATA expemax<>+4(SB)/4, $0x7FF
DATA expemax<>+8(SB)/4, $0x7FF
DATA expemax<>+12(SB)/4, $0x7FF
GLOBL expemax<>(SB), RODATA|NOPTR, $16

// func expAVX2(x *float64, n int) int
// Registers: Y0 the input, Y1 k as float64 then scratch, X2 k then
// e, Y3 r then s, Y4 the polynomial, X5 and X6 the range check's
// masks then Y6 the scale 2**k, X7 zero, X8 the bound 2047; SI the
// array, AX the lane index, CX n.
TEXT ·expAVX2(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	XORQ   AX, AX
	VPXOR  X7, X7, X7
	VMOVDQU expemax<>(SB), X8

exploop:
	VMOVUPD    (SI)(AX*8), Y0
	VMULPD     explog2e<>(SB), Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD  X2, Y1

	// Range check on e = k + 1023: stop before this group unless every
	// lane has 0 < e < 2047.
	VPADDD    expbias<>(SB), X2, X2
	VPCMPGTD  X7, X2, X5
	VPCMPGTD  X2, X8, X6
	VPAND     X6, X5, X5
	VMOVMSKPS X5, DX
	CMPQ      DX, $15
	JNE       expdone

	VMULPD expln2hi<>(SB), Y1, Y3
	VSUBPD Y3, Y0, Y3
	VMULPD expln2lo<>(SB), Y1, Y1
	VSUBPD Y1, Y3, Y3
	VMULPD expsixteenth<>(SB), Y3, Y3

	VMULPD expc8<>(SB), Y3, Y4
	VADDPD expc7<>(SB), Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD expc6<>(SB), Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD expc5<>(SB), Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD expc4<>(SB), Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD expc3<>(SB), Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD expc2<>(SB), Y4, Y4
	VMULPD Y3, Y4, Y4
	VADDPD expone<>(SB), Y4, Y4
	VMULPD Y4, Y3, Y3

	VADDPD exptwo<>(SB), Y3, Y4
	VMULPD Y4, Y3, Y3
	VADDPD exptwo<>(SB), Y3, Y4
	VMULPD Y4, Y3, Y3
	VADDPD exptwo<>(SB), Y3, Y4
	VMULPD Y4, Y3, Y3
	VADDPD exptwo<>(SB), Y3, Y4
	VMULPD Y4, Y3, Y3
	VADDPD expone<>(SB), Y3, Y3

	VPMOVZXDQ X2, Y6
	VPSLLQ    $52, Y6, Y6
	VMULPD    Y6, Y3, Y3
	VMOVUPD   Y3, (SI)(AX*8)

	ADDQ $4, AX
	CMPQ AX, CX
	JB   exploop

expdone:
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET
