//go:build amd64 && !purego

package tensor

// Four-lane exponential kernel in exp_amd64.s, dispatched on useAVX2.

//go:noescape
func expAVX2(x *float64, n int) int
