//go:build !amd64 || purego

package selection

// Off amd64, and under the purego tag, there are no vector kernels:
// cpu.AVX2 is false, so useAVX2 starts false and the portable loops run
// everywhere. The entry points below are unreachable; they exist only
// so the dispatch compiles on every architecture.

func gain4AVX2(r0, r1, r2, r3, best *float32, n int, sums *[4]float64) {
	panic("selection: AVX2 kernel called in a build without it")
}

func simRowAVX2(row, norms *float32, n int, na, c0 float32) {
	panic("selection: AVX2 kernel called in a build without it")
}
