// Golden fixture for the inlinegate compiler-evidence analyzer: the
// declaration rule (annotated kernels must stay inlinable, with gc's
// cost report quoted on failure) and the call-site rule (hot calls to
// annotated kernels must actually inline).
package inlfix

// Out keeps results observable so nothing is dead-code-eliminated.
var Out float32

// Add is the declaration-rule true negative: a leaf far under the
// inline budget.
//
//nessa:inline
func Add(a, b float32) float32 { return a + b }

// Huge is the declaration-rule true positive: the body is far over
// the inline budget (and carries a loop), so gc refuses to inline it
// and the gate quotes gc's reason.
//
//nessa:inline
func Huge(xs []float32) float32 { // want "gc cannot inline //nessa:inline function Huge"
	s := float32(1)
	for _, x := range xs {
		s += x * 1.0001
		s *= x + 0.5
		s += x * 2.0002
		s *= x + 1.5
		s += x * 3.0003
		s *= x + 2.5
		s += x * 4.0004
		s *= x + 3.5
		s += x * 5.0005
		s *= x + 4.5
		s += x * 6.0006
		s *= x + 5.5
		s += x * 7.0007
		s *= x + 6.5
		s += x * 8.0008
		s *= x + 7.5
		s += x * 9.0009
		s *= x + 8.5
		s += x * 10.001
		s *= x + 9.5
	}
	return s
}

// Hot exercises the call-site rule: the Add call inlines (true
// negative) and both Huge calls cannot inline and are flagged, the
// second under a justifying comment, which is no waiver.
//
//nessa:hotpath
func Hot(xs []float32) {
	s := Add(2, 3)
	s += Huge(xs) // want "call to //nessa:inline function Huge was not inlined"
	// dispatch-amortized call, one per chunk
	s += Huge(xs) // want "call to //nessa:inline function Huge was not inlined"
	Out = s
}
