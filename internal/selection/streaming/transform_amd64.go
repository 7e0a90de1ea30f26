//go:build amd64 && !purego

package streaming

// Row-lane similarity kernel in transform_amd64.s, dispatched on
// useAVX2.

//go:noescape
func transform4AVX2(sims *float32, stride int, resNorm *float32, n int, c0na *[4]float32, v *[4]float64, top *[4]float32)
