// AVX2/FMA micro-kernels behind the dispatch wrappers in
// gemm_kernels.go. These are the *non-bit-exact* tier: every term is
// one VFMADD231PS — multiply and add fused with a single rounding —
// which is why they live behind the BitExact option instead of
// replacing the MUL+ADD kernels of gemm_avx_amd64.s. Determinism still
// holds: each destination element owns one lane of one YMM accumulator
// that starts at +0, receives its terms in ascending k within the
// caller's KC block, and is folded into dst once per block — an order
// fixed by the data layout alone. The shapes, strides and register
// tiles are those of the bit-exact kernels; only the term instruction
// differs.
//
// Dispatch requires cpuFastTierOK (AVX2 + FMA3 + OS YMM state), so no
// instruction here runs on a machine that cannot execute it.

#include "textflag.h"

// FOLD adds the accumulator acc into the 8 floats at mem through t:
// mem = mem + acc, one rounding.
#define FOLD(acc, mem, t) VMOVUPS mem, t; VADDPS acc, t, t; VMOVUPS t, mem

// func fmaMicro4x16(d *float32, ldd int, a *float32, rs, ks int, p0, p1 *float32, kn int)
// Y0..Y7 hold a 4-row × 16-column dst tile: two adjacent 8-wide panels
// against four A rows. Callers guarantee kn >= 1.
TEXT ·fmaMicro4x16(SB), NOSPLIT, $0-64
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

f416loop:
	VMOVUPS      (BX), Y8
	VMOVUPS      (R11), Y9
	VBROADCASTSS (DX)(AX*1), Y10
	VBROADCASTSS (SI)(AX*1), Y11
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS (DI)(AX*1), Y12
	VBROADCASTSS (R12)(AX*1), Y13
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ         $32, BX
	ADDQ         $32, R11
	ADDQ         R13, AX
	DECQ         CX
	JNE          f416loop

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

// func fmaMicro4x8(d *float32, ldd int, a *float32, rs, ks int, p *float32, kn int)
// One 8-wide panel against four A rows: Y0..Y3.
TEXT ·fmaMicro4x8(SB), NOSPLIT, $0-56
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

f48loop:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (DX)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y0
	VBROADCASTSS (SI)(AX*1), Y11
	VFMADD231PS  Y8, Y11, Y1
	VBROADCASTSS (DI)(AX*1), Y12
	VFMADD231PS  Y8, Y12, Y2
	VBROADCASTSS (R12)(AX*1), Y13
	VFMADD231PS  Y8, Y13, Y3
	ADDQ         $32, BX
	ADDQ         R13, AX
	DECQ         CX
	JNE          f48loop

	FOLD(Y0, (R8), Y8)
	ADDQ R9, R8
	FOLD(Y1, (R8), Y8)
	ADDQ R9, R8
	FOLD(Y2, (R8), Y8)
	ADDQ R9, R8
	FOLD(Y3, (R8), Y8)
	VZEROUPPER
	RET

// func fmaMicro1x8(d, a *float32, ks int, p *float32, kn int)
// Row-tail variant: one A row against one panel in Y0.
TEXT ·fmaMicro1x8(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), R8
	MOVQ a+8(FP), DX
	MOVQ ks+16(FP), R13
	MOVQ p+24(FP), BX
	MOVQ kn+32(FP), CX
	SHLQ $2, R13
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX

f18loop:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (DX)(AX*1), Y10
	VFMADD231PS  Y8, Y10, Y0
	ADDQ         $32, BX
	ADDQ         R13, AX
	DECQ         CX
	JNE          f18loop

	FOLD(Y0, (R8), Y8)
	VZEROUPPER
	RET
