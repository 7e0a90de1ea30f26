//go:build amd64 && !purego

// AVX2 kernels of the tiled facility instance (facility.go): the gain
// scan of four drawn candidates at once, and the similarity epilogue
// that turns a row of the tile's GEMM dot products into similarities.
// Both give the bits of the portable loops they stand in for.
//
// gain4AVX2. Per candidate the gain is tileGain's
//
//	g = Σᵢ (sᵢ − bᵢ) over the i with sᵢ > bᵢ, in float64,
//
// and its bits fix the association: ascending i, one accumulator per
// candidate. So the kernel never sums across a row (DESIGN.md §4.10,
// the row-lane rule). Per 8-column block it computes sᵢ − bᵢ for four
// rows under an ordered greater-than mask (VCMPPS $0x1e, GT_OQ: false
// when either side is NaN, as Go's s > b is), so a skipped lane adds
// +0, which leaves g unchanged — g never holds −0, since it starts at
// +0 and every term is +0 or positive. It then transposes the 4-row ×
// 8-column block into eight 4-row column vectors and adds them,
// widened, to Y9 — one float64 lane per candidate — in ascending i.
// n is a positive multiple of 8; the caller finishes the remaining
// columns with the portable loop, carrying each sum on.
//
// simRowAVX2. Per column the similarity is simOf's
//
//	s = c0 − ((na + nb) − 2·d),  s < 0 → +0,
//
// with 2·d computed as d + d (the same value, no multiply) and a clamp
// that keeps NaN and −0 as `if s < 0` does: an ordered less-than mask,
// then VANDNPS. n is a positive multiple of 8.
//
// Dispatch requires cpu.AVX2.

#include "textflag.h"

// DIFF loads 8 similarities of the row at p into d and leaves there
// d − best where d > best (ordered) and +0 elsewhere; Y10 holds the
// block of best. Y15 is clobbered.
#define DIFF(p, d) \
	VMOVUPS (p)(AX*1), d; \
	VCMPPS  $0x1e, Y10, d, Y15; \
	VSUBPS  Y10, d, d; \
	VANDPS  Y15, d, d

// ADDCOL adds one column's four differences, the low four floats of x,
// to the candidate sums in Y9.
#define ADDCOL(x) \
	VCVTPS2PD x, Y15; \
	VADDPD    Y15, Y9, Y9

// func gain4AVX2(r0, r1, r2, r3, best *float32, n int, sums *[4]float64)
// Registers: Y9 the four sums, Y10 the block of best, Y11–Y14 the rows'
// differences, Y15 scratch; SI, DI, R8, R9 the row pointers, DX best,
// AX the byte offset and CX its end.
TEXT ·gain4AVX2(SB), NOSPLIT, $0-56
	MOVQ   r0+0(FP), SI
	MOVQ   r1+8(FP), DI
	MOVQ   r2+16(FP), R8
	MOVQ   r3+24(FP), R9
	MOVQ   best+32(FP), DX
	MOVQ   n+40(FP), CX
	SHLQ   $2, CX
	VXORPD Y9, Y9, Y9
	XORQ   AX, AX

gainloop:
	VMOVUPS (DX)(AX*1), Y10
	DIFF(SI, Y11)
	DIFF(DI, Y12)
	DIFF(R8, Y13)
	DIFF(R9, Y14)

	// Rows a, b, c, d (Y11–Y14) → one vector per column i.
	VUNPCKLPS Y12, Y11, Y10 // a0 b0 a1 b1 | a4 b4 a5 b5
	VUNPCKHPS Y12, Y11, Y15 // a2 b2 a3 b3 | a6 b6 a7 b7
	VUNPCKLPS Y14, Y13, Y11 // c0 d0 c1 d1 | c4 d4 c5 d5
	VUNPCKHPS Y14, Y13, Y12 // c2 d2 c3 d3 | c6 d6 c7 d7
	VUNPCKLPD Y11, Y10, Y13 // i=0 | i=4
	VUNPCKHPD Y11, Y10, Y14 // i=1 | i=5
	VUNPCKLPD Y12, Y15, Y10 // i=2 | i=6
	VUNPCKHPD Y12, Y15, Y11 // i=3 | i=7

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
	JB   gainloop

	MOVQ    sums+48(FP), R11
	VMOVUPD Y9, (R11)
	VZEROUPPER
	RET

// func simRowAVX2(row, norms *float32, n int, na, c0 float32)
// Registers: Y0 broadcast na, Y1 broadcast c0, Y2 the dot products,
// Y3 the similarities, Y4 zero, Y5 the clamp mask; SI the row, DX the
// norms, AX the byte offset and CX its end.
TEXT ·simRowAVX2(SB), NOSPLIT, $0-32
	MOVQ         row+0(FP), SI
	MOVQ         norms+8(FP), DX
	MOVQ         n+16(FP), CX
	SHLQ         $2, CX
	VBROADCASTSS na+24(FP), Y0
	VBROADCASTSS c0+28(FP), Y1
	VXORPS       Y4, Y4, Y4
	XORQ         AX, AX

simloop:
	VMOVUPS (SI)(AX*1), Y2
	VADDPS  (DX)(AX*1), Y0, Y3
	VADDPS  Y2, Y2, Y2
	VSUBPS  Y2, Y3, Y3
	VSUBPS  Y3, Y1, Y3
	VCMPPS  $1, Y4, Y3, Y5
	VANDNPS Y3, Y5, Y3
	VMOVUPS Y3, (SI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      simloop

	VZEROUPPER
	RET
