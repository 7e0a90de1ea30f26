package tensor

import "math"

// Dot returns the inner product of a and b. Lengths must match.
//
//nessa:hotpath
//nessa:inline
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float32
	for i := range a {
		// Round each product before the add: `s += a*b`, and also
		// `t := a*b; s += t`, may be fused into an FMA, which would
		// break the amd64-vs-portable bit-identity contract; only the
		// explicit conversion forbids it.
		s += float32(a[i] * b[i])
	}
	return s
}

// SqDist returns the squared Euclidean distance between a and b.
//
//nessa:hotpath
func SqDist(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: SqDist length mismatch")
	}
	var s float32
	for i := range a {
		d := a[i] - b[i]
		// Round the square before the add (no FMA; see Dot).
		s += float32(d * d)
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []float32) float32 {
	var s float64
	for _, x := range v {
		// Round the square before the add (no FMA; see Dot).
		s += float64(float64(x) * float64(x))
	}
	return float32(math.Sqrt(s))
}

// Argmax returns the index of the largest element of v, or -1 if v is
// empty. Ties resolve to the lowest index.
//
//nessa:hotpath
func Argmax(v []float32) int {
	if len(v) == 0 {
		return -1
	}
	// Carrying the running maximum in a register instead of re-reading
	// v[best] removes the only bounds check the prover cannot discharge
	// (best is data-dependent). Same comparisons, same tie-breaking.
	best, bestVal := 0, v[0]
	for i := 1; i < len(v); i++ {
		if v[i] > bestVal {
			best, bestVal = i, v[i]
		}
	}
	return best
}

// Softmax writes the softmax of logits into out (which may alias
// logits). It is numerically stabilized by max subtraction.
//
//nessa:hotpath
func Softmax(out, logits []float32) {
	if len(out) != len(logits) {
		panic("tensor: Softmax length mismatch")
	}
	maxv := logits[0]
	for _, x := range logits[1:] {
		if x > maxv {
			maxv = x
		}
	}
	var sum float64
	for i, x := range logits {
		e := math.Exp(float64(x - maxv))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
}
