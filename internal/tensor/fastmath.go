// The fast-math switch. The default tier is *bit-exact*: every kernel
// — the AVX assembly, the portable Go kernels a CPU without AVX runs,
// any worker count — performs one IEEE-754 single-precision multiply
// and one add per term in ascending k, so outputs are identical bit
// patterns everywhere. SetFastMath(true) opts into the non-bit-exact
// tier: the same micro-kernel shapes on the same 8-wide panels, with
// each multiply-add fused into a single rounding (AVX2/FMA) and the
// accumulation over k folded into dst every gemmKC terms. The tiers
// differ in nothing else. Fast-tier results differ from the bit-exact
// tier within a small documented tolerance (see DESIGN.md §4.9) but
// remain fully deterministic: run-to-run AND across worker counts, the
// association order is fixed by the data layout alone, never by
// scheduling.
//
// The switch is process-global, mirroring the worker-count knob in
// internal/parallel: flip it between runs, never concurrently with
// executing kernels.
package tensor

// FastTierTolerance is the documented bound on the relative divergence
// between fast-tier and bit-exact results for one GEMM (DESIGN.md
// §4.9): FMA fusion and KC blocking perturb each accumulation by a few
// ULPs, far below this bound for the repo's shapes. The tolerance
// tests and the bench-training gate both enforce it.
const FastTierTolerance = 1e-5

// fastKernels is the dispatch flag the kernels read: the fast tier was
// requested (core.Options.BitExact = false → SetFastMath(true)) and the
// CPU supports AVX2+FMA (with OS AVX state enabled).
var fastKernels bool

// SetFastMath requests (or revokes) the non-bit-exact AVX2/FMA kernel
// tier and reports whether it is now active. On hardware without
// AVX2/FMA — or off amd64 entirely — the kernels silently stay on the
// bit-exact tier, so BitExact=false is *permission* to diverge, never a
// requirement. Must not be called concurrently with running kernels.
func SetFastMath(on bool) bool {
	fastKernels = on && FastMathSupported()
	return fastKernels
}

// FastMathActive reports whether the fast tier is currently dispatched.
func FastMathActive() bool { return fastKernels }

// FastMathSupported reports whether this CPU and build can run the
// AVX2/FMA tier at all.
func FastMathSupported() bool { return cpuFastTierOK }
