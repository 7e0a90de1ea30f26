//go:build amd64 && !purego

package erasure

// Split-nibble kernels in gf_amd64.s, dispatched on useAVX2.

//go:noescape
func gfDot4AVX2(t0, t1, t2, t3 *[32]byte, a, b, c, d, out *byte, n int)

//go:noescape
func gfDot4XorAVX2(t0, t1, t2, t3 *[32]byte, a, b, c, d, out *byte, n int)

//go:noescape
func gfMulXorAVX2(t *[32]byte, in, out *byte, n int)
