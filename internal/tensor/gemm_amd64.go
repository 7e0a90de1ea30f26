//go:build amd64

package tensor

// cpuAVXOK and cpuFastTierOK are resolved once at init. The bit-exact
// AVX kernels need AVX in hardware *and* an OS that context-switches
// the YMM state (OSXSAVE set and XCR0 enabling both XMM and YMM
// saves): without the XCR0 check an AVX-capable CPU under a
// non-AVX-aware kernel would fault on the first VEX instruction. The
// fast tier additionally needs FMA3 and AVX2.
var (
	cpuAVXOK      = detectAVX()
	cpuFastTierOK = cpuAVXOK && detectFMA()
)

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

func detectFMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const fma3 = 1 << 12
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return c1&fma3 != 0 && b7&avx2 != 0
}

// Implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// Bit-exact AVX kernels in gemm_avx_amd64.s: one VMULPS then one
// VADDPS per term, never fused.

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

// Fast-tier kernels in gemm_avx2_amd64.s: the same shapes with every
// term fused into one VFMADD231PS (one rounding per term) —
// deterministic, but not bit-identical to the MUL+ADD kernels.

//go:noescape
func fmaMicro4x16(d *float32, ldd int, a *float32, rs, ks int, p0, p1 *float32, kn int)

//go:noescape
func fmaMicro4x8(d *float32, ldd int, a *float32, rs, ks int, p *float32, kn int)

//go:noescape
func fmaMicro1x8(d, a *float32, ks int, p *float32, kn int)
