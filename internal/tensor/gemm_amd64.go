//go:build amd64 && !purego

package tensor

// cpuAVXOK is resolved once at init. The AVX kernels need AVX in
// hardware *and* an OS that context-switches the YMM state (OSXSAVE set
// and XCR0 enabling both XMM and YMM saves): without the XCR0 check an
// AVX-capable CPU under a non-AVX-aware kernel would fault on the first
// VEX instruction.
var cpuAVXOK = detectAVX()

func detectAVX() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c1&avx == 0 || c1&osxsave == 0 {
		return false
	}
	xlo, _ := xgetbv()
	return xlo&0x6 == 0x6 // XMM (bit 1) and YMM (bit 2) state enabled
}

// Implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

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
