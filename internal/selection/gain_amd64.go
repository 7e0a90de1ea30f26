//go:build amd64 && !purego

package selection

// Tile kernels in gain_amd64.s, dispatched on useAVX2.

//go:noescape
func gain4AVX2(r0, r1, r2, r3, best *float32, n int, sums *[4]float64)

//go:noescape
func simRowAVX2(row, norms *float32, n int, na, c0 float32)
