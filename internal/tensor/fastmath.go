// Compatibility shims for the retired kernel-tier switch. The tensor
// kernels have one tier: every kernel — the AVX assembly, the portable
// Go kernels a CPU without AVX runs, any worker count — performs one
// IEEE-754 single-precision multiply and one add per term in ascending
// k, so outputs are identical bit patterns everywhere (DESIGN.md §4.9).
package tensor

// SetFastMath is a no-op kept for callers that still name it: there is
// no second tier to switch to, so it always reports false.
func SetFastMath(bool) bool { return false }

// FastMathActive reports false: every kernel is bit-exact.
func FastMathActive() bool { return false }
