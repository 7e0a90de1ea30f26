package streaming

import (
	"math"
	"testing"

	"nessa/internal/cpu"
	"nessa/internal/tensor"
)

// hostileF32 draws a value from rng that is, one time in mix+1, one of
// the values the similarity transform must treat exactly as the
// portable loop does: NaN, ±Inf, ±0 or a square that overflows, and
// otherwise a normal times scale times 2^[-30, 30]. The spread of
// exponents is what makes a float64 sum of float32 values round, so
// that summing a row in another order changes its bits.
func hostileF32(rng *tensor.RNG, mix uint8, scale float32) float32 {
	if rng.Intn(int(mix)+1) == 0 {
		return [...]float32{
			float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
			0, float32(math.Copysign(0, -1)), 3e19, -3e19,
		}[rng.Intn(7)]
	}
	return rng.NormFloat32() * scale * float32(math.Ldexp(1, rng.Intn(61)-30))
}

// FuzzTransformMatchesPortable runs transform through the AVX2 row-lane
// kernel and through the portable loop on 0–9 rows (ragged against the
// kernel's 4-row groups) of 0–600 reservoir columns (ragged against its
// 8-column blocks), with NaN, ±Inf, ±0 and overflowing values among the
// dot products, norms and embeddings and a c0 that leaves c0 − ‖g‖²
// negative for some rows. Similarities, singleton values and row
// maxima must agree bit for bit, NaN payloads aside (sameBits).
func FuzzTransformMatchesPortable(f *testing.F) {
	f.Add(uint8(4), uint16(8), uint8(1), uint8(255), uint64(1))
	f.Add(uint8(9), uint16(600), uint8(3), uint8(3), uint64(2))
	f.Add(uint8(7), uint16(13), uint8(2), uint8(0), uint64(3))
	f.Add(uint8(0), uint16(5), uint8(1), uint8(1), uint64(4))
	f.Add(uint8(5), uint16(4), uint8(3), uint8(16), uint64(5))
	f.Fuzz(func(t *testing.T, rows8 uint8, cols16 uint16, dim8 uint8, mix uint8, seed uint64) {
		if !cpu.AVX2 {
			t.Skip("no AVX2 kernel in this build or on this CPU")
		}
		rows, cols, dim := int(rows8)%10, int(cols16)%601, int(dim8)%3+1
		rng := tensor.NewRNG(seed)
		dots := make([]float32, rows*cols)
		for i := range dots {
			dots[i] = hostileF32(rng, mix, 4)
		}
		resNorm := make([]float32, cols)
		for i := range resNorm {
			resNorm[i] = float32(math.Abs(float64(hostileF32(rng, mix, 2))))
		}
		emb := make([]float32, rows*dim)
		for i := range emb {
			emb[i] = hostileF32(rng, mix, 1)
		}
		c0 := float32(rng.Intn(33))

		run := func(avx bool) ([]float32, []float64, []float32) {
			defer func(prev bool) { useAVX2 = prev }(useAVX2)
			useAVX2 = avx
			sims := append([]float32(nil), dots...)
			rawV, top := make([]float64, rows), make([]float32, rows)
			transform(sims, emb, resNorm, c0, rawV, top)
			return sims, rawV, top
		}
		wantS, wantV, wantT := run(false)
		gotS, gotV, gotT := run(true)
		for i := range wantS {
			if !sameBits(float64(gotS[i]), float64(wantS[i]), math.Float32bits(gotS[i]) == math.Float32bits(wantS[i])) {
				t.Fatalf("%d×%d: sim[%d][%d] = %v (%#x), portable %v (%#x)", rows, cols, i/cols, i%cols,
					gotS[i], math.Float32bits(gotS[i]), wantS[i], math.Float32bits(wantS[i]))
			}
		}
		for r := range wantV {
			if !sameBits(gotV[r], wantV[r], math.Float64bits(gotV[r]) == math.Float64bits(wantV[r])) {
				t.Fatalf("%d×%d: rawV[%d] = %v, portable %v", rows, cols, r, gotV[r], wantV[r])
			}
			if !sameBits(float64(gotT[r]), float64(wantT[r]), math.Float32bits(gotT[r]) == math.Float32bits(wantT[r])) {
				t.Fatalf("%d×%d: top[%d] = %v, portable %v", rows, cols, r, gotT[r], wantT[r])
			}
		}
	})
}

// sameBits reports whether got and want agree bit for bit (eq), or are
// both NaN. A NaN's payload is the one thing the two paths may differ
// in: x86 passes on the first operand's NaN when both are NaN, and gc
// orders a commutative add's operands as its register allocation
// falls (a -race build orders the portable loop's v += sim differently
// from a plain one). No comparison the sieve makes can see a payload.
func sameBits(got, want float64, eq bool) bool {
	return eq || math.IsNaN(got) && math.IsNaN(want)
}
