//go:build !amd64 || purego

package erasure

// Off amd64, and under the purego tag, there is no vector kernel:
// cpu.AVX2 is false, so useAVX2 starts false and the portable
// row-table loops run everywhere. The entry points below are
// unreachable; they exist only so dotSlices and mulAddSlice compile on
// every architecture.

func gfDot4AVX2(t0, t1, t2, t3 *[32]byte, a, b, c, d, out *byte, n int) {
	panic("erasure: AVX2 kernel called in a build without it")
}

func gfDot4XorAVX2(t0, t1, t2, t3 *[32]byte, a, b, c, d, out *byte, n int) {
	panic("erasure: AVX2 kernel called in a build without it")
}

func gfMulXorAVX2(t *[32]byte, in, out *byte, n int) {
	panic("erasure: AVX2 kernel called in a build without it")
}
