package tensor

import (
	"math"

	"nessa/internal/cpu"
)

// The exponential softmax runs on. math.Exp is not one function: on
// amd64 it switches between two instruction sequences on the CPU's FMA
// support, and arm64 runs a third, so its float64 result depends on
// the host. expPortable is one fixed sequence instead: the non-FMA
// path of Go's math/exp_amd64.s (after Shibata's SLEEF, ISC'10), step
// for step, with every product written float64(x*y) so that no
// compiler may fuse it into the add that follows. It returns the same
// float64 on every host and architecture (DESIGN.md §4.9), and
// expAVX2 computes it four lanes at a time.
const (
	expLog2E    = 1.4426950408889634073599246810018920                  // 1/ln 2
	expLn2Hi    = 0.69314718055966295651160180568695068359375           // upper half of ln 2
	expLn2Lo    = 0.28235290563031577122588448175013436025525412068e-12 // lower half of ln 2
	expOverflow = 7.09782712893384e+02

	// The Taylor coefficients 1/k! of the reduced argument's series.
	expC2 = 0.5
	expC3 = 1.6666666666666666667e-1
	expC4 = 4.1666666666666666667e-2
	expC5 = 8.3333333333333333333e-3
	expC6 = 1.3888888888888888889e-3
	expC7 = 1.9841269841269841270e-4
	expC8 = 2.4801587301587301587e-5
)

// useAVX2 routes whole 4-lane groups of expInPlace through expAVX2: AVX2
// in hardware and an OS that saves the YMM state. It is cpu.AVX2 in
// every build; tests clear it to force the portable sequence.
var useAVX2 = cpu.AVX2

// expPortable returns e**x by the fixed sequence. Special cases, as
// math.Exp: exp(+Inf) = +Inf, exp(NaN) = NaN (the same bits),
// exp(−Inf) = 0, and exp(x) = +Inf above ≈ 709.78.
func expPortable(x float64) float64 {
	bits := math.Float64bits(x)
	if bits&^(1<<63) >= 0x7FF0000000000000 { // not finite
		if bits == 0xFFF0000000000000 {
			return 0
		}
		return x
	}
	if x > expOverflow {
		return math.Inf(1)
	}
	k := cvtsd2sl(float64(expLog2E * x))
	fk := float64(k)
	// Reduce: r = (x − k·ln 2)/16, with ln 2 in two halves.
	r := x - float64(expLn2Hi*fk)
	r -= float64(expLn2Lo * fk)
	r = float64(r * 0.0625)
	// e**r − 1 by its Taylor series in Horner form, then squared four
	// times as (1 + s)² − 1 = s·(2 + s) to undo the 1/16.
	p := float64(expC8*r) + expC7
	p = float64(p*r) + expC6
	p = float64(p*r) + expC5
	p = float64(p*r) + expC4
	p = float64(p*r) + expC3
	p = float64(p*r) + expC2
	p = float64(p*r) + 1
	s := float64(p * r)
	s = float64(s * (2 + s))
	s = float64(s * (2 + s))
	s = float64(s * (2 + s))
	s = float64(s * (2 + s))
	s++
	// Scale by 2**k through the exponent bits.
	e := k + 0x3FF
	if e <= 0 {
		// The denormal branch: 2**k is below the normal range, so it
		// is applied in two normal factors, 2**(k+1022) then 2**−1022.
		if e < -52 {
			return 0
		}
		s = float64(s * math.Float64frombits(uint64(e+0x3FE)<<52))
		e = 1
	} else if e >= 0x7FF {
		return math.Inf(1)
	}
	return float64(s * math.Float64frombits(uint64(e)<<52))
}

// cvtsd2sl converts v to int32 as the x86 CVTSD2SL instruction does
// under the default rounding mode: to nearest, ties to even, and
// math.MinInt32 (the "integer indefinite") for NaN and for any value
// whose rounding falls outside int32.
func cvtsd2sl(v float64) int32 {
	r := math.RoundToEven(v)
	if !(r >= math.MinInt32 && r <= math.MaxInt32) {
		return math.MinInt32
	}
	return int32(r)
}

// expInPlace replaces each x[i] with expPortable(x[i]). With useAVX2,
// whole 4-lane groups run expAVX2, which stops at a group holding a
// lane outside its range (NaN, ±Inf, a result outside the normal
// float64 range); that group and the < 4 lanes left over take the
// portable sequence.
//
//nessa:hotpath
func expInPlace(x []float64) {
	i := 0
	if vec := len(x) &^ 3; useAVX2 {
		for i < vec {
			i += expAVX2(&x[i], vec-i)
			if i < vec {
				g := x[i : i+4 : i+4]
				for j, v := range g {
					g[j] = expPortable(v)
				}
				i += 4
			}
		}
	}
	tail := x[i:]
	for j, v := range tail {
		tail[j] = expPortable(v)
	}
}
