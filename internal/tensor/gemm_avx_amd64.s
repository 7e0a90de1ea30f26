//go:build amd64 && !purego

// Bit-exact AVX micro-kernels behind the dispatch wrappers in
// gemm_kernels.go.
//
// Bitwise contract: no FMA is used anywhere. Every term is one VMULPS
// (or VMULSS) of an A value by a B value, rounded to float32, then one
// VADDPS (VADDSS) of that product into the destination element's own
// vector lane, in ascending k. The dense kernels start each lane at +0
// and fold it into dst once at the end; the skip kernel starts from
// dst itself and folds term by term. Those are exactly the operation
// chains of the portable Go kernels, so both produce identical bits.
//
// Dispatch requires cpuAVXOK (AVX + OS YMM state), so no instruction
// here runs on a machine that cannot execute it. Y15 and R14/R15 are
// left alone.
//
// A operands are addressed through two strides: rs bytes between the
// four A rows of a tile and ks bytes between consecutive k. Natural
// rows (MatMul, MatMulTransB) have rs = lda, ks = 1; the columns of a
// transposed operand (MatMulTransA) have rs = 1, ks = lda — so one
// kernel serves all three layouts with no A-side packing.

#include "textflag.h"

// MULADD adds the rounded product b·v into acc through t.
#define MULADD(v, b, t, acc) VMULPS v, b, t; VADDPS t, acc, acc

// FOLD adds the accumulator acc into the 8 floats at mem through t:
// mem = mem + acc, one rounding.
#define FOLD(acc, mem, t) VMOVUPS mem, t; VADDPS acc, t, t; VMOVUPS t, mem

// func avxMicro4x16(d *float32, ldd int, a *float32, rs, ks int, p0, p1 *float32, kn int)
// Y0..Y7 hold a 4-row × 16-column dst tile: two adjacent 8-wide panels,
// p0 and p1, against four A rows. Callers guarantee kn >= 1.
TEXT ·avxMicro4x16(SB), NOSPLIT, $0-64
	MOVQ d+0(FP), R8
	MOVQ ldd+8(FP), R9
	MOVQ a+16(FP), DX
	MOVQ rs+24(FP), R10
	MOVQ ks+32(FP), R13
	MOVQ p0+40(FP), BX
	MOVQ p1+48(FP), R11
	MOVQ kn+56(FP), CX
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R13
	LEAQ (DX)(R10*1), SI
	LEAQ (SI)(R10*1), DI
	LEAQ (DI)(R10*1), R12
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   AX, AX

m416loop:
	VMOVUPS      (BX), Y8
	VMOVUPS      (R11), Y9
	VBROADCASTSS (DX)(AX*1), Y10
	VBROADCASTSS (SI)(AX*1), Y11
	MULADD(Y8, Y10, Y12, Y0)
	MULADD(Y9, Y10, Y13, Y1)
	MULADD(Y8, Y11, Y14, Y2)
	MULADD(Y9, Y11, Y12, Y3)
	VBROADCASTSS (DI)(AX*1), Y10
	VBROADCASTSS (R12)(AX*1), Y11
	MULADD(Y8, Y10, Y13, Y4)
	MULADD(Y9, Y10, Y14, Y5)
	MULADD(Y8, Y11, Y12, Y6)
	MULADD(Y9, Y11, Y13, Y7)
	ADDQ         $32, BX
	ADDQ         $32, R11
	ADDQ         R13, AX
	DECQ         CX
	JNE          m416loop

	FOLD(Y0, (R8), Y8)
	FOLD(Y1, 32(R8), Y9)
	ADDQ R9, R8
	FOLD(Y2, (R8), Y8)
	FOLD(Y3, 32(R8), Y9)
	ADDQ R9, R8
	FOLD(Y4, (R8), Y8)
	FOLD(Y5, 32(R8), Y9)
	ADDQ R9, R8
	FOLD(Y6, (R8), Y8)
	FOLD(Y7, 32(R8), Y9)
	VZEROUPPER
	RET

// func avxMicro4x8(d *float32, ldd int, a *float32, rs, ks int, p *float32, kn int)
// One 8-wide panel against four A rows: Y0..Y3.
TEXT ·avxMicro4x8(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), R8
	MOVQ ldd+8(FP), R9
	MOVQ a+16(FP), DX
	MOVQ rs+24(FP), R10
	MOVQ ks+32(FP), R13
	MOVQ p+40(FP), BX
	MOVQ kn+48(FP), CX
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R13
	LEAQ (DX)(R10*1), SI
	LEAQ (SI)(R10*1), DI
	LEAQ (DI)(R10*1), R12
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX

m48loop:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (DX)(AX*1), Y10
	VBROADCASTSS (SI)(AX*1), Y11
	MULADD(Y8, Y10, Y12, Y0)
	MULADD(Y8, Y11, Y13, Y1)
	VBROADCASTSS (DI)(AX*1), Y10
	VBROADCASTSS (R12)(AX*1), Y11
	MULADD(Y8, Y10, Y12, Y2)
	MULADD(Y8, Y11, Y13, Y3)
	ADDQ         $32, BX
	ADDQ         R13, AX
	DECQ         CX
	JNE          m48loop

	FOLD(Y0, (R8), Y8)
	ADDQ R9, R8
	FOLD(Y1, (R8), Y8)
	ADDQ R9, R8
	FOLD(Y2, (R8), Y8)
	ADDQ R9, R8
	FOLD(Y3, (R8), Y8)
	VZEROUPPER
	RET

// func avxMicro1x8(d, a *float32, ks int, p *float32, kn int)
// Row-tail variant: one A row against one panel in Y0.
TEXT ·avxMicro1x8(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), R8
	MOVQ a+8(FP), DX
	MOVQ ks+16(FP), R13
	MOVQ p+24(FP), BX
	MOVQ kn+32(FP), CX
	SHLQ $2, R13
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX

m18loop:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (DX)(AX*1), Y10
	MULADD(Y8, Y10, Y12, Y0)
	ADDQ         $32, BX
	ADDQ         R13, AX
	DECQ         CX
	JNE          m18loop

	FOLD(Y0, (R8), Y8)
	VZEROUPPER
	RET

// func avxGatherNZ(src *float32, n, stride int, off *int, val *float32, rowBytes int) int
// Lists the nonzero elements of src[0], src[stride], …, src[(n-1)·stride]
// in ascending order: val[t] is the element, off[t] its index times
// rowBytes. Returns the count. Branch-free: every element is written
// at slot t and t advances only past a nonzero one, so off and val
// need room for n entries. ±0 is zero; NaN is not.
TEXT ·avxGatherNZ(SB), NOSPLIT, $0-56
	MOVQ src+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ stride+16(FP), DX
	MOVQ off+24(FP), R8
	MOVQ val+32(FP), R9
	MOVQ rowBytes+40(FP), R10
	SHLQ $2, DX
	XORQ AX, AX
	XORQ BX, BX
	TESTQ CX, CX
	JEQ  gnzdone

gnzloop:
	MOVL (SI), R11
	MOVL R11, (R9)(AX*4)
	MOVQ BX, (R8)(AX*8)
	SHLL $1, R11
	NEGL R11
	ADCQ $0, AX
	ADDQ DX, SI
	ADDQ R10, BX
	DECQ CX
	JNE  gnzloop

gnzdone:
	MOVQ AX, ret+48(FP)
	RET

// func avxSkipRow(d *float32, m int, b *float32, off *int, val *float32, nnz int)
// d[j] += val[t]·b[off[t]/4 + j] for t = 0…nnz-1 in order, for every
// j < m — the axpy chain of the sparse skip bands, one rounding per
// multiply and per add, with the dst chunk held in registers across
// all nnz terms: 32 columns in Y0..Y3, then 8-column chunks in Y0,
// then single columns in X0. Callers guarantee nnz >= 1.
TEXT ·avxSkipRow(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), R8
	MOVQ m+8(FP), R9
	MOVQ b+16(FP), R10
	MOVQ off+24(FP), R11
	MOVQ val+32(FP), R12
	MOVQ nnz+40(FP), R13
	MOVQ R9, CX
	SHRQ $5, CX
	JEQ  skip8

skip32chunk:
	VMOVUPS (R8), Y0
	VMOVUPS 32(R8), Y1
	VMOVUPS 64(R8), Y2
	VMOVUPS 96(R8), Y3
	XORQ    AX, AX

skip32term:
	MOVQ         (R11)(AX*8), BX
	ADDQ         R10, BX
	VBROADCASTSS (R12)(AX*4), Y4
	VMULPS       (BX), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(BX), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       64(BX), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       96(BX), Y4, Y8
	VADDPS       Y8, Y3, Y3
	INCQ         AX
	CMPQ         AX, R13
	JLT          skip32term

	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, 64(R8)
	VMOVUPS Y3, 96(R8)
	ADDQ    $128, R8
	ADDQ    $128, R10
	DECQ    CX
	JNE     skip32chunk

skip8:
	MOVQ R9, CX
	ANDQ $31, CX
	SHRQ $3, CX
	JEQ  skip1

skip8chunk:
	VMOVUPS (R8), Y0
	XORQ    AX, AX

skip8term:
	MOVQ         (R11)(AX*8), BX
	ADDQ         R10, BX
	VBROADCASTSS (R12)(AX*4), Y4
	VMULPS       (BX), Y4, Y5
	VADDPS       Y5, Y0, Y0
	INCQ         AX
	CMPQ         AX, R13
	JLT          skip8term

	VMOVUPS Y0, (R8)
	ADDQ    $32, R8
	ADDQ    $32, R10
	DECQ    CX
	JNE     skip8chunk

skip1:
	MOVQ R9, CX
	ANDQ $7, CX
	JEQ  skipdone

skip1col:
	VMOVSS (R8), X0
	XORQ   AX, AX

skip1term:
	MOVQ   (R11)(AX*8), BX
	ADDQ   R10, BX
	VMOVSS (R12)(AX*4), X4
	VMULSS (BX), X4, X5
	VADDSS X5, X0, X0
	INCQ   AX
	CMPQ   AX, R13
	JLT    skip1term

	VMOVSS X0, (R8)
	ADDQ   $4, R8
	ADDQ   $4, R10
	DECQ   CX
	JNE    skip1col

skipdone:
	VZEROUPPER
	RET
