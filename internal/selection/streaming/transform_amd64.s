//go:build amd64 && !purego

// AVX2 row-lane kernel behind transform (selector.go): four rows of a
// class's GEMM dot products become clamped similarities, their
// singleton values and their largest entries, eight columns at a time.
//
// Per row and column the similarity is the portable loop's
//
//	sim = (c0na − ‖r‖²) + 2·dot,  sim < 0 → +0,
//
// computed 8 wide with the same operand order (VSUBPS, VADDPS) and a
// clamp that keeps NaN and −0 as the Go comparison does (an ordered
// less-than mask, then VANDNPS; VMAXPS against 0 would turn both into
// +0). Each row's maximum is folded per lane with VMAXPS(sim, top),
// which keeps top on NaN and on ±0 ties exactly as `if sim > top` does;
// the lanes then reduce in any order, since they hold +0 or positives.
//
// The singleton value v is a float64 sum whose association the
// portable loop fixes: ascending t, one accumulator per row. So the
// kernel never sums across a row: it transposes each 4-row × 8-column
// block into eight 4-row column vectors and adds them, widened, to Y9 —
// one float64 lane per row — in ascending t. n is a positive multiple
// of 8; the caller finishes the remaining columns with the portable
// loop, carrying v and top on. Dispatch requires cpu.AVX2.
//
// Registers: Y0–Y3 the rows' broadcast c0na, Y4 zero, Y5–Y8 the rows'
// 8-lane maxima, Y9 the four row sums, Y10 the block's reservoir norms,
// Y11–Y14 the rows' similarities, Y15 scratch; SI, DI, R8, R9 the row
// pointers, DX the norms, AX the byte offset and CX its end.

#include "textflag.h"

// SIMS turns the 8 dot products at (p)(AX*1) into clamped similarities
// in s, stores them back, and folds them into top; c is the row's
// broadcast c0na. Y15 is clobbered.
#define SIMS(p, c, top, s) \
	VMOVUPS (p)(AX*1), s; \
	VSUBPS  Y10, c, Y15; \
	VADDPS  s, s, s; \
	VADDPS  s, Y15, s; \
	VCMPPS  $1, Y4, s, Y15; \
	VANDNPS s, Y15, s; \
	VMOVUPS s, (p)(AX*1); \
	VMAXPS  top, s, top

// ADDCOL adds one column's four similarities, the low four floats of x,
// to the row sums in Y9.
#define ADDCOL(x) \
	VCVTPS2PD x, Y15; \
	VADDPD    Y15, Y9, Y9

// HMAX stores the largest of top's eight lanes at off(R11); x is top's
// low half. X15 is clobbered.
#define HMAX(top, x, off) \
	VEXTRACTF128 $1, top, X15; \
	VMAXPS       X15, x, x; \
	VPERMILPS    $0x4e, x, X15; \
	VMAXPS       X15, x, x; \
	VPERMILPS    $0xb1, x, X15; \
	VMAXPS       X15, x, x; \
	VMOVSS       x, off(R11)

// func transform4AVX2(sims *float32, stride int, resNorm *float32, n int, c0na *[4]float32, v *[4]float64, top *[4]float32)
TEXT ·transform4AVX2(SB), NOSPLIT, $0-56
	MOVQ         sims+0(FP), SI
	MOVQ         stride+8(FP), BX
	SHLQ         $2, BX
	LEAQ         (SI)(BX*1), DI
	LEAQ         (DI)(BX*1), R8
	LEAQ         (R8)(BX*1), R9
	MOVQ         resNorm+16(FP), DX
	MOVQ         n+24(FP), CX
	SHLQ         $2, CX
	MOVQ         c0na+32(FP), R10
	VBROADCASTSS 0(R10), Y0
	VBROADCASTSS 4(R10), Y1
	VBROADCASTSS 8(R10), Y2
	VBROADCASTSS 12(R10), Y3
	VXORPS       Y4, Y4, Y4
	VXORPS       Y5, Y5, Y5
	VXORPS       Y6, Y6, Y6
	VXORPS       Y7, Y7, Y7
	VXORPS       Y8, Y8, Y8
	VXORPD       Y9, Y9, Y9
	XORQ         AX, AX

loop:
	VMOVUPS (DX)(AX*1), Y10
	SIMS(SI, Y0, Y5, Y11)
	SIMS(DI, Y1, Y6, Y12)
	SIMS(R8, Y2, Y7, Y13)
	SIMS(R9, Y3, Y8, Y14)

	// Rows a, b, c, d (Y11–Y14) → one vector per column t.
	VUNPCKLPS Y12, Y11, Y10 // a0 b0 a1 b1 | a4 b4 a5 b5
	VUNPCKHPS Y12, Y11, Y15 // a2 b2 a3 b3 | a6 b6 a7 b7
	VUNPCKLPS Y14, Y13, Y11 // c0 d0 c1 d1 | c4 d4 c5 d5
	VUNPCKHPS Y14, Y13, Y12 // c2 d2 c3 d3 | c6 d6 c7 d7
	VUNPCKLPD Y11, Y10, Y13 // t=0 | t=4
	VUNPCKHPD Y11, Y10, Y14 // t=1 | t=5
	VUNPCKLPD Y12, Y15, Y10 // t=2 | t=6
	VUNPCKHPD Y12, Y15, Y11 // t=3 | t=7

	ADDCOL(X13)
	ADDCOL(X14)
	ADDCOL(X10)
	ADDCOL(X11)
	VEXTRACTF128 $1, Y13, X13
	ADDCOL(X13)
	VEXTRACTF128 $1, Y14, X14
	ADDCOL(X14)
	VEXTRACTF128 $1, Y10, X10
	ADDCOL(X10)
	VEXTRACTF128 $1, Y11, X11
	ADDCOL(X11)

	ADDQ $32, AX
	CMPQ AX, CX
	JB   loop

	MOVQ    v+40(FP), R11
	VMOVUPD Y9, (R11)
	MOVQ    top+48(FP), R11
	HMAX(Y5, X5, 0)
	HMAX(Y6, X6, 4)
	HMAX(Y7, X7, 8)
	HMAX(Y8, X8, 12)
	VZEROUPPER
	RET
