//go:build !amd64 || purego

package tensor

// Off amd64, and under the purego tag, there are no vector kernels:
// cpuAVXOK is false, so useAVX starts false and the portable Go kernels
// in gemm_kernels.go run everywhere. The entry points below are
// unreachable; they exist only so the dispatch wrappers compile on
// every architecture.
const cpuAVXOK = false

func avxMicro4x16(d *float32, ldd int, a *float32, rs, ks int, p0, p1 *float32, kn int) {
	panic("tensor: AVX kernel called in a build without it")
}

func avxMicro4x8(d *float32, ldd int, a *float32, rs, ks int, p *float32, kn int) {
	panic("tensor: AVX kernel called in a build without it")
}

func avxMicro1x8(d, a *float32, ks int, p *float32, kn int) {
	panic("tensor: AVX kernel called in a build without it")
}

func avxGatherNZ(src *float32, n, stride int, off *int, val *float32, rowBytes int) int {
	panic("tensor: AVX kernel called in a build without it")
}

func avxSkipRow(d *float32, m int, b *float32, off *int, val *float32, nnz int) {
	panic("tensor: AVX kernel called in a build without it")
}
