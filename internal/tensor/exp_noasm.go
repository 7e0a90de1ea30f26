//go:build !amd64 || purego

package tensor

// Off amd64, and under the purego tag, cpu.AVX2 is false, so useAVX2
// starts false and expPortable runs everywhere. The entry point below
// is unreachable; it exists only so the dispatch compiles on every
// architecture.

func expAVX2(x *float64, n int) int {
	panic("tensor: AVX2 kernel called in a build without it")
}
