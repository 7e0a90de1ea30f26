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

// softmaxBlock is the length, in elements, of the float64 scratch
// SoftmaxRows runs the exponential over. A block spans row boundaries,
// so the vector kernel sees long arrays and not one short row at a
// time: over one 10-class row its ~40-operation dependent chain leaves
// it latency-bound. The scratch is a stack array zeroed on every call,
// so it is no longer than it needs to be: at 1,024 elements a caller
// that passes one 10-class row at a time ran 15 % slower than with
// math.Exp, at 256 it runs as fast, and 256-row blocks run the same at
// either size.
const softmaxBlock = 256

// SoftmaxRows writes the softmax of each cols-wide row of logits into
// the matching row of out (which may alias logits), stabilized by max
// subtraction. Per row, with m the row's max (`>` from the first
// element, so a NaN there wins and later NaNs are skipped):
//
//	eⱼ = expPortable(float64(xⱼ − m)),  s = Σⱼ eⱼ ascending in float64,
//	outⱼ = float32(eⱼ) · float32(1/s)
//
// The exponentials run over whole blocks of rows at once (elementwise,
// so in any lane order); each row's sum stays one scalar float64 added
// in ascending j, as DESIGN.md §4.10 requires. It allocates nothing.
//
//nessa:hotpath
func SoftmaxRows(out, logits []float32, cols int) {
	if len(out) != len(logits) {
		panic("tensor: SoftmaxRows length mismatch")
	}
	if len(logits) == 0 {
		return
	}
	if cols <= 0 || len(logits)%cols != 0 {
		panic("tensor: SoftmaxRows length is not a whole number of rows")
	}
	var buf [softmaxBlock]float64
	var maxv float32 // the max of the row being filled in
	var sum float64  // the sum of the row being drained
	col := 0         // the column of the block's first element
	for start := 0; start < len(logits); start += softmaxBlock {
		x := logits[start:min(start+softmaxBlock, len(logits))]
		blk := buf[:len(x)]
		// Fill the block with x − m, a row segment at a time.
		c := col
		for i := 0; i < len(x); {
			if c == 0 {
				maxv = rowMax(logits[start+i : start+i+cols])
			}
			src := x[i:min(len(x), i+cols-c)]
			dst := blk[i:][:len(src)]
			for k, v := range src {
				dst[k] = float64(v - maxv)
			}
			i += len(src)
			if c += len(src); c == cols {
				c = 0
			}
		}
		expInPlace(blk)
		// Drain it over the same segments, closing each row it ends.
		y := out[start:][:len(x)]
		for i := 0; i < len(blk); {
			src := blk[i:min(len(blk), i+cols-col)]
			dst := y[i:][:len(src)]
			for k, e := range src {
				dst[k] = float32(e)
				sum += e
			}
			i += len(src)
			if col += len(src); col == cols {
				row := out[start+i-cols : start+i]
				inv := float32(1 / sum)
				for k := range row {
					row[k] *= inv
				}
				col, sum = 0, 0
			}
		}
	}
}

// rowMax returns the largest element of the non-empty v by `>` from
// v[0]: a NaN at v[0] is the result, a NaN after it never is.
func rowMax(v []float32) float32 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
