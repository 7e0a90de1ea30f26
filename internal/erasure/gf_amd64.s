//go:build amd64 && !purego

// AVX2 split-nibble GF(256) multiply-accumulate kernels behind
// dotSlices and mulAddSlice (gf_amd64.go).
//
// A product c·x splits over x's nibbles: c·x = c·(x & 15) ⊕ c·(x & 0xf0).
// Each coefficient therefore has two 16-byte tables in nibbleTable
// (c·0…c·15 and c·0x00…c·0xf0), and VPSHUFB looks up 32 bytes of each
// half at once:
//
//	out = ⊕ₖ VPSHUFB(loₖ, in & 0x0f) ⊕ VPSHUFB(hiₖ, in >> 4)
//
// GF(256) addition is XOR, so the result is the same byte the
// row-table loop computes, whatever the order of the terms. n is a
// positive multiple of 32; the caller runs the remaining tail through
// the portable loop. Dispatch requires cpu.AVX2 (AVX2 + OS YMM state).
//
// Registers: Y0–Y7 hold the four sources' low/high tables (broadcast
// to both 128-bit lanes), Y8 the 0x0f mask, Y9–Y14 temporaries; AX is
// the byte offset and CX the length.

#include "textflag.h"

// MASK loads the 0x0f byte mask into Y8.
#define MASK \
	MOVQ         $0x0f, R11; \
	MOVQ         R11, X8; \
	VPBROADCASTB X8, Y8

// TABLES broadcasts coefficient table pointer tp's two halves into lo
// and hi.
#define TABLES(tp, lo, hi) \
	VBROADCASTI128 0(tp), lo; \
	VBROADCASTI128 16(tp), hi

// MULNIB sets y = c·x for the 32 bytes x at (src)(AX*1), where lo and
// hi are c's nibble tables; t is clobbered.
#define MULNIB(src, lo, hi, y, t) \
	VMOVDQU (src)(AX*1), y; \
	VPSRLQ  $4, y, t; \
	VPAND   Y8, y, y; \
	VPAND   Y8, t, t; \
	VPSHUFB y, lo, y; \
	VPSHUFB t, hi, t; \
	VPXOR   t, y, y

// DOT4 sets Y9 = t0·a ⊕ t1·b ⊕ t2·c ⊕ t3·d for the 32 bytes at AX.
#define DOT4 \
	MULNIB(SI, Y0, Y1, Y9, Y10); \
	MULNIB(DI, Y2, Y3, Y11, Y12); \
	MULNIB(R8, Y4, Y5, Y13, Y14); \
	VPXOR  Y11, Y9, Y9; \
	MULNIB(R9, Y6, Y7, Y11, Y12); \
	VPXOR  Y13, Y9, Y9; \
	VPXOR  Y11, Y9, Y9

// LOAD4 loads gfDot4AVX2's and gfDot4XorAVX2's shared arguments.
#define LOAD4 \
	MOVQ t0+0(FP), R10; \
	TABLES(R10, Y0, Y1); \
	MOVQ t1+8(FP), R10; \
	TABLES(R10, Y2, Y3); \
	MOVQ t2+16(FP), R10; \
	TABLES(R10, Y4, Y5); \
	MOVQ t3+24(FP), R10; \
	TABLES(R10, Y6, Y7); \
	MOVQ a+32(FP), SI; \
	MOVQ b+40(FP), DI; \
	MOVQ c+48(FP), R8; \
	MOVQ d+56(FP), R9; \
	MOVQ out+64(FP), DX; \
	MOVQ n+72(FP), CX; \
	MASK; \
	XORQ AX, AX

// func gfDot4AVX2(t0, t1, t2, t3 *[32]byte, a, b, c, d, out *byte, n int)
// out[i] = t0·a[i] ⊕ t1·b[i] ⊕ t2·c[i] ⊕ t3·d[i] for i < n.
TEXT ·gfDot4AVX2(SB), NOSPLIT, $0-80
	LOAD4

dot4:
	DOT4
	VMOVDQU Y9, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      dot4
	VZEROUPPER
	RET

// func gfDot4XorAVX2(t0, t1, t2, t3 *[32]byte, a, b, c, d, out *byte, n int)
// out[i] ^= t0·a[i] ⊕ t1·b[i] ⊕ t2·c[i] ⊕ t3·d[i] for i < n.
TEXT ·gfDot4XorAVX2(SB), NOSPLIT, $0-80
	LOAD4

dot4xor:
	DOT4
	VPXOR   (DX)(AX*1), Y9, Y9
	VMOVDQU Y9, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      dot4xor
	VZEROUPPER
	RET

// func gfMulXorAVX2(t *[32]byte, in, out *byte, n int)
// out[i] ^= t·in[i] for i < n.
TEXT ·gfMulXorAVX2(SB), NOSPLIT, $0-32
	MOVQ t+0(FP), R10
	TABLES(R10, Y0, Y1)
	MOVQ in+8(FP), SI
	MOVQ out+16(FP), DX
	MOVQ n+24(FP), CX
	MASK
	XORQ AX, AX

mul1:
	MULNIB(SI, Y0, Y1, Y9, Y10)
	VPXOR   (DX)(AX*1), Y9, Y9
	VMOVDQU Y9, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      mul1
	VZEROUPPER
	RET
