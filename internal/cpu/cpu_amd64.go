//go:build amd64 && !purego

package cpu

// AVX reports AVX in hardware *and* an OS that context-switches the
// YMM state (OSXSAVE set and XCR0 enabling both XMM and YMM saves):
// without the XCR0 check an AVX-capable CPU under a non-AVX-aware
// kernel would fault on the first VEX instruction. AVX2 additionally
// needs CPUID leaf 7's AVX2 bit.
var AVX, AVX2 = detect()

func detect() (avx, avx2 bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		osxsave = 1 << 27
		avxBit  = 1 << 28
		avx2Bit = 1 << 5 // leaf 7, EBX
	)
	if c1&avxBit == 0 || c1&osxsave == 0 {
		return false, false
	}
	if xlo, _ := xgetbv(); xlo&0x6 != 0x6 { // XMM (bit 1) and YMM (bit 2) state
		return false, false
	}
	if maxID < 7 {
		return true, false
	}
	_, b7, _, _ := cpuid(7, 0)
	return true, b7&avx2Bit != 0
}

// Implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)
