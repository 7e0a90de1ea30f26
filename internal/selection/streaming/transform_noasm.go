//go:build !amd64 || purego

package streaming

// Off amd64, and under the purego tag, there is no vector kernel:
// cpu.AVX2 is false, so useAVX2 starts false and transformTail runs
// everywhere. The entry point below is unreachable; it exists only so
// transform compiles on every architecture.

func transform4AVX2(sims *float32, stride int, resNorm *float32, n int, c0na *[4]float32, v *[4]float64, top *[4]float32) {
	panic("streaming: AVX2 kernel called in a build without it")
}
