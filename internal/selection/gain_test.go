package selection

import (
	"math"
	"testing"

	"nessa/internal/cpu"
	"nessa/internal/tensor"
)

// hostileF32 draws a value from rng that is, one time in mix+1, one of
// the values the tile kernels must treat exactly as the portable loops
// do — NaN, ±Inf, ±0, a denormal, or a value whose square or double
// overflows — and otherwise a normal times scale times 2^[-30, 30]. The
// spread of exponents is what makes a float64 sum of float32 terms
// round, so that summing a row in another order changes its bits.
func hostileF32(rng *tensor.RNG, mix uint8, scale float32) float32 {
	if rng.Intn(int(mix)+1) == 0 {
		return [...]float32{
			float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
			0, float32(math.Copysign(0, -1)), 3e19, -3e19,
			math.SmallestNonzeroFloat32, -3 * math.SmallestNonzeroFloat32, 0x1p-127,
		}[rng.Intn(10)]
	}
	return rng.NormFloat32() * scale * float32(math.Ldexp(1, rng.Intn(61)-30))
}

// tileFacility returns a tiled instance over an n×n tile, as gains
// reads it: only the candidate count and the tile matter.
func tileFacility(tile []float32, n int) *facility {
	return &facility{cand: make([]int, n), tile: tile}
}

// checkGains runs f.gains over drawn on the AVX2 kernel and on the
// portable loop, and holds both to per-row tileGain bit for bit.
func checkGains(t *testing.T, name string, f *facility, drawn []int, best []float32) {
	t.Helper()
	for _, avx := range []bool{false, true} {
		if avx && !cpu.AVX2 {
			continue
		}
		got := make([]float64, len(drawn))
		func() {
			defer func(prev bool) { useAVX2 = prev }(useAVX2)
			useAVX2 = avx
			f.gains(drawn, best, got)
		}()
		for t2, j := range drawn {
			want := tileGain(f.tileRow(j), best, 0)
			if math.Float64bits(got[t2]) != math.Float64bits(want) {
				t.Fatalf("%s avx=%v: n=%d, %d draws: gain of draw %d (row %d) = %v (%#x), tileGain %v (%#x)",
					name, avx, len(f.cand), len(drawn), t2, j, got[t2], math.Float64bits(got[t2]), want, math.Float64bits(want))
			}
		}
	}
}

// FuzzGainMatchesPortable scores 1–7 drawn rows (ragged against the
// kernel's 4-row groups, so padded groups run) of a 0–600-column tile
// (ragged against its 8-column blocks), with repeated draws and NaN,
// ±Inf, ±0 and denormals among the similarities and the best vector,
// and holds facility.gains to per-row tileGain bit for bit.
func FuzzGainMatchesPortable(f *testing.F) {
	f.Add(uint16(8), uint8(3), uint8(255), false, uint64(1))
	f.Add(uint16(600), uint8(6), uint8(3), true, uint64(2))
	f.Add(uint16(17), uint8(4), uint8(0), false, uint64(3))
	f.Add(uint16(0), uint8(0), uint8(1), false, uint64(4))
	f.Add(uint16(160), uint8(22), uint8(16), true, uint64(5))
	f.Fuzz(func(t *testing.T, n16 uint16, draws8 uint8, mix uint8, repeat bool, seed uint64) {
		n := int(n16) % 601
		rng := tensor.NewRNG(seed)
		tile := make([]float32, n*n)
		for i := range tile {
			tile[i] = hostileF32(rng, mix, 4)
		}
		best := make([]float32, n)
		for i := range best {
			best[i] = hostileF32(rng, mix, 4)
		}
		var drawn []int
		if n > 0 {
			drawn = make([]int, 1+int(draws8)%7)
			for t := range drawn {
				drawn[t] = rng.Intn(n)
				if repeat && t > 0 && rng.Intn(2) == 0 {
					drawn[t] = drawn[rng.Intn(t)]
				}
			}
		}
		checkGains(t, "fuzz", tileFacility(tile, n), drawn, best)
	})
}

// TestGainsAtBlockEdges scores every draw count 1–7 on rows of 8j−1,
// 8j and 8j+1 columns. Each row also holds the pairs an ordered
// greater-than mask must skip — s = b = +Inf and s = b = −Inf (whose
// difference is NaN), NaN on either side, +0 against −0 — in the first
// columns and, from 12 columns on, in the last ones, so in a vector
// block and in the column tail.
func TestGainsAtBlockEdges(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	skips := [][2]float32{{inf, inf}, {-inf, -inf}, {nan, 1}, {1, nan}, {0, negZero}, {negZero, 0}}
	for j := 1; j <= 5; j++ {
		for _, n := range []int{8*j - 1, 8 * j, 8*j + 1} {
			rng := tensor.NewRNG(uint64(n))
			tile := make([]float32, n*n)
			for i := range tile {
				tile[i] = hostileF32(rng, 31, 2)
			}
			best := make([]float32, n)
			for i := range best {
				best[i] = hostileF32(rng, 31, 1)
			}
			for s, p := range skips {
				cols := []int{s}
				if n >= 12 {
					cols = append(cols, n-1-s)
				}
				for _, i := range cols {
					best[i] = p[1]
					for r := 0; r < n; r++ {
						tile[r*n+i] = p[0]
					}
				}
			}
			f := tileFacility(tile, n)
			for draws := 1; draws <= 7; draws++ {
				drawn := make([]int, draws)
				for t2 := range drawn {
					drawn[t2] = (5*t2 + 1) % n
				}
				checkGains(t, "edges", f, drawn, best)
			}
		}
	}
}
