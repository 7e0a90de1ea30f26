//go:build amd64 && !purego

package tensor

import "nessa/internal/cpu"

// cpuAVXOK is the shared probe's verdict: AVX in hardware and an OS
// that saves the YMM state.
var cpuAVXOK = cpu.AVX

// AVX kernels in gemm_avx_amd64.s: one VMULPS then one VADDPS per
// term, never fused.

//go:noescape
func avxMicro4x16(d *float32, ldd int, a *float32, rs, ks int, p0, p1 *float32, kn int)

//go:noescape
func avxMicro4x8(d *float32, ldd int, a *float32, rs, ks int, p *float32, kn int)

//go:noescape
func avxMicro1x8(d, a *float32, ks int, p *float32, kn int)

//go:noescape
func avxGatherNZ(src *float32, n, stride int, off *int, val *float32, rowBytes int) int

//go:noescape
func avxSkipRow(d *float32, m int, b *float32, off *int, val *float32, nnz int)
