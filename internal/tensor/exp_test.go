package tensor

import (
	"math"
	"testing"

	"nessa/internal/cpu"
)

// expPins are input → output bit patterns of expPortable. They pin the
// sequence itself, so a port to another architecture (or a change to
// the sequence) must give these bits: no host here runs the portable
// Go anywhere but amd64. They cover the normal range, the overflow
// bound (k rounds to 1024 already at 709.78), the denormal branch
// (e ≤ 0, from x ≈ −708.76 on) and the underflow branch (e < −52, from
// x ≈ −745.48 on), and the special cases. The last row is one where
// the FMA sequence of math.Exp on amd64 gives the next float64 up.
var expPins = [][2]uint64{
	{0x0000000000000000, 0x3FF0000000000000}, // 0 → 1 (e = 1023)
	{0x8000000000000000, 0x3FF0000000000000}, // -0 → 1 (e = 1023)
	{0x3FF0000000000000, 0x4005BF0A8B145769}, // 1 → 2.718281828459045 (e = 1024)
	{0xBFF0000000000000, 0x3FD78B56362CEF38}, // -1 → 0.36787944117144233 (e = 1022)
	{0x3FE0000000000000, 0x3FFA61298E1E069C}, // 0.5 → 1.6487212707001282 (e = 1024)
	{0xBFE0000000000000, 0x3FE368B2FC6F960A}, // -0.5 → 0.6065306597126334 (e = 1022)
	{0x4000000000000000, 0x401D8E64B8D4DDAE}, // 2 → 7.38905609893065 (e = 1026)
	{0xC000000000000000, 0x3FC152AAA3BF81CC}, // -2 → 0.1353352832366127 (e = 1020)
	{0x400921F9F01B866E, 0x4037240068789162}, // 3.14159 → 23.14063122695496 (e = 1028)
	{0xC00C000000000000, 0x3F9EEC1018E4FF66}, // -3.5 → 0.0301973834223185 (e = 1018)
	{0x4024000000000000, 0x40D5829DCF950560}, // 10 → 22026.465794806718 (e = 1037)
	{0xC024000000000000, 0x3F07CD79B5647C9B}, // -10 → 4.5399929762484854e-05 (e = 1009)
	{0xC034000000000000, 0x3E21B48655F37267}, // -20 → 2.061153622438558e-09 (e = 994)
	{0xC03E000000000000, 0x3D3A56E0C2AC7F75}, // -30 → 9.357622968840175e-14 (e = 980)
	{0x40562E147AE147AE, 0x47EFE8C665382968}, // 88.72 → 3.39317637416317e+38 (e = 1151)
	{0xC055D51EB851EB85, 0x38101AE52CB62D9C}, // -87.33 → 1.1832128985586114e-38 (e = 897)
	{0x01A56E1FC2F8F359, 0x3FF0000000000000}, // 1e-300 → 1 (e = 1023)
	{0x81A56E1FC2F8F359, 0x3FF0000000000000}, // -1e-300 → 1 (e = 1023)
	{0x0000000000000001, 0x3FF0000000000000}, // 5e-324 → 1 (e = 1023)
	{0x4085E00000000000, 0x7F0D945DF4F8EC8E}, // 700 → 1.0142320547350045e+304 (e = 2033)
	{0x40862E3D70A3D70A, 0x7FF0000000000000}, // 709.78 → +Inf (e = 2047)
	{0x40862E42FEFA39EF, 0x7FF0000000000000}, // 709.782712893384 → +Inf (e = 2047)
	{0x40862E51EB851EB8, 0x7FF0000000000000}, // 709.79 → +Inf (e = 2047)
	{0x4086300000000000, 0x7FF0000000000000}, // 710 → +Inf (e = 2047)
	{0x4202A05F20000000, 0x7FF0000000000000}, // 1e+10 → +Inf (e = MinInt32 + 1023)
	{0xC202A05F20000000, 0x0000000000000000}, // -1e+10 → 0 (e = MinInt32 + 1023)
	{0xC086226666666666, 0x00119E98B83DE7A4}, // -708.3 → 2.4502955309659886e-308 (e = 1)
	{0xC086232BDD7ABCD2, 0x001000000000007C}, // -708.3964185322641 → 2.2250738585072626e-308 (e = 1)
	{0xC086233333333333, 0x000FF15B469EDF89}, // -708.4 → 2.217119081664265e-308 (e = 1)
	{0xC086260000000000, 0x000B3C15564D094A}, // -708.75 → 1.5623774103368634e-308 (e = 0)
	{0xC08626147AE147AE, 0x000B1F774154EAF7}, // -708.76 → 1.546831495357482e-308 (e = 0)
	{0xC086280000000000, 0x0008BFE55DE02338}, // -709 → 1.216780750623423e-308 (e = 0)
	{0xC086800000000000, 0x0000000993B4DC95}, // -720 → 2.0322308024e-313 (e = -16)
	{0xC087433333333333, 0x0000000000000001}, // -744.4 → 5e-324 (e = -51)
	{0xC087480000000000, 0x0000000000000001}, // -745 → 5e-324 (e = -52)
	{0xC0874910D52D3051, 0x0000000000000001}, // -745.1332191019411 → 5e-324 (e = -52)
	{0xC087491EB851EB85, 0x0000000000000000}, // -745.14 → 0 (e = -52)
	{0xC08749999999999A, 0x0000000000000000}, // -745.2 → 0 (e = -52)
	{0xC0874BC28F5C28F6, 0x0000000000000000}, // -745.47 → 0 (e = -52)
	{0xC0874BD70A3D70A4, 0x0000000000000000}, // -745.48 → 0 (e = -53)
	{0xC087500000000000, 0x0000000000000000}, // -746 → 0 (e = -53)
	{0xC089000000000000, 0x0000000000000000}, // -800 → 0 (e = -131)
	{0x7FF8000000000001, 0x7FF8000000000001}, // NaN → NaN (e = MinInt32 + 1023)
	{0x7FF0000000000000, 0x7FF0000000000000}, // +Inf → +Inf (e = MinInt32 + 1023)
	{0xFFF0000000000000, 0x0000000000000000}, // -Inf → 0 (e = MinInt32 + 1023)
	{0x3FD62E42FEFA39EF, 0x3FF6A09E667F3BCC}, // 0.34657359027997264 → 1.414213562373095 (e = 1023)
	{0xBFD62E42FEFA39EF, 0x3FE6A09E667F3BCC}, // -0.34657359027997264 → 0.7071067811865475 (e = 1023)
}

func TestExpPinnedBits(t *testing.T) {
	for _, p := range expPins {
		x := math.Float64frombits(p[0])
		if got := math.Float64bits(expPortable(x)); got != p[1] {
			t.Errorf("expPortable(%v) = %#016x, pinned %#016x", x, got, p[1])
		}
		for _, avx2 := range kernelSettings() {
			withAVX2(avx2, func() {
				v := []float64{x, x, x, x}
				expInPlace(v)
				for _, y := range v {
					if got := math.Float64bits(y); got != p[1] {
						t.Errorf("expInPlace(%v) avx2=%v = %#016x, pinned %#016x", x, avx2, got, p[1])
					}
				}
			})
		}
	}
}

// TestCvtsd2sl pins the conversion CVTSD2SL performs: ties to even and
// the integer indefinite for NaN and out-of-range values.
func TestCvtsd2sl(t *testing.T) {
	cases := []struct {
		v    float64
		want int32
	}{
		{0.5, 0}, {1.5, 2}, {2.5, 2}, {-0.5, 0}, {-1.5, -2}, {-2.5, -2}, {0.49999999999999994, 0},
		{2147483647.4, math.MaxInt32}, {2147483647.5, math.MinInt32}, {-2147483648.5, math.MinInt32},
		{-2147483649.5, math.MinInt32}, {1e300, math.MinInt32}, {math.Inf(1), math.MinInt32},
		{math.Inf(-1), math.MinInt32}, {math.NaN(), math.MinInt32},
	}
	for _, c := range cases {
		if got := cvtsd2sl(c.v); got != c.want {
			t.Errorf("cvtsd2sl(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

// withAVX2 runs f with useAVX2 set to avx2.
func withAVX2(avx2 bool, f func()) {
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	useAVX2 = avx2
	f()
}

// kernelSettings is the useAVX2 values this build and CPU can run.
func kernelSettings() []bool {
	if cpu.AVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// TestExpKernelMatchesPortable runs expInPlace over arrays of every
// length 0–67 (ragged against the kernel's 4-lane groups) whose lanes
// are finite values across the whole range, the boundaries of the
// denormal and underflow branches, NaN, ±Inf and ±0, in every lane
// position, and holds it to expPortable bit for bit.
func TestExpKernelMatchesPortable(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		709.79, -708.75, -720, -745.2, -746, 1e10, -1e10, 5e-324}
	r := NewRNG(7)
	for n := 0; n < 68; n++ {
		for trial := 0; trial < 40; trial++ {
			x := make([]float64, n)
			for i := range x {
				switch r.Intn(4) {
				case 0:
					x[i] = special[r.Intn(len(special))]
				case 1:
					x[i] = -708 - float64(40*r.Float64())
				default:
					x[i] = float64(1500*r.Float64()) - 800
				}
			}
			checkExp(t, x)
		}
	}
}

// checkExp holds expInPlace over x to expPortable per lane.
func checkExp(t *testing.T, x []float64) {
	t.Helper()
	for _, avx2 := range kernelSettings() {
		got := append([]float64(nil), x...)
		withAVX2(avx2, func() { expInPlace(got) })
		for i, v := range x {
			if want := expPortable(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("len %d avx2=%v: exp(%v) lane %d = %v, portable %v", len(x), avx2, v, i, got[i], want)
			}
		}
	}
}

// softmaxRef is the one-row softmax tensor.Softmax computed before
// SoftmaxRows, with its exponential a parameter: exp = math.Exp is that
// body verbatim, the oracle the fixed sequence is held to, and
// exp = expPortable is the per-row reference of the block form.
func softmaxRef(out, logits []float32, exp func(float64) float64) {
	maxv := logits[0]
	for _, x := range logits[1:] {
		if x > maxv {
			maxv = x
		}
	}
	var sum float64
	for i, x := range logits {
		e := exp(float64(x - maxv))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
}

// hostileRows fills rows × cols logits whose rows are, by turn, plain
// N(0, 4²) draws, draws spread wide enough that x − max falls in the
// exponential's denormal and underflow ranges (−745…−708 and below),
// draws with one NaN, ±Inf, ±0 or denormal among them, a row whose max
// is +Inf, an all-−Inf row and a row of −Inf but one value.
func hostileRows(r *RNG, rows, cols int) []float32 {
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0,
		float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -0x1p-130, 3e38, -3e38}
	x := make([]float32, rows*cols)
	for i := 0; i < rows; i++ {
		row := x[i*cols : (i+1)*cols]
		kind := r.Intn(8)
		for j := range row {
			switch kind {
			case 1:
				row[j] = -float32(700 + float64(60*r.Float64()))
			case 2:
				row[j] = r.NormFloat32() * 300
			default:
				row[j] = r.NormFloat32() * 4
			}
		}
		switch kind {
		case 1:
			row[r.Intn(cols)] = 0 // the max, so the rest land at −760…−700
		case 3:
			row[r.Intn(cols)] = special[r.Intn(len(special))]
		case 4:
			row[r.Intn(cols)] = float32(math.Inf(1))
		case 5:
			for j := range row {
				row[j] = float32(math.Inf(-1))
			}
		case 6:
			for j := range row {
				row[j] = float32(math.Inf(-1))
			}
			row[r.Intn(cols)] = r.NormFloat32()
		}
	}
	return x
}

// checkSoftmaxRows holds SoftmaxRows over x to softmaxRef with
// expPortable row by row, bit for bit, under every kernel setting.
func checkSoftmaxRows(t *testing.T, x []float32, cols int) {
	t.Helper()
	want := make([]float32, len(x))
	for i := 0; i < len(x); i += cols {
		softmaxRef(want[i:i+cols], x[i:i+cols], expPortable)
	}
	got := make([]float32, len(x))
	for _, avx2 := range kernelSettings() {
		withAVX2(avx2, func() { SoftmaxRows(got, x, cols) })
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%d×%d avx2=%v: element %d (row %d) = %v, per-row reference %v",
					len(x)/cols, cols, avx2, i, i/cols, got[i], want[i])
			}
		}
	}
}

// TestSoftmaxRowsMatchesRowReference runs the block softmax on 0–70
// rows of 1–300 classes, with the hostile rows of hostileRows: for
// every class count, row counts that end inside the first block, just
// past it and at 70 rows (so rows straddle each block boundary they
// reach), and every row count for a few class counts.
func TestSoftmaxRowsMatchesRowReference(t *testing.T) {
	r := NewRNG(11)
	for cols := 1; cols <= 300; cols++ {
		across := (softmaxBlock+cols-1)/cols + 1
		for _, rows := range []int{0, 1, 2, 3, across - 2, across, 70} {
			if rows < 0 || rows > 70 {
				continue
			}
			checkSoftmaxRows(t, hostileRows(r, rows, cols), cols)
		}
	}
	for _, cols := range []int{1, 7, 10, 15, 100, 129, 300} {
		for rows := 0; rows <= 70; rows++ {
			checkSoftmaxRows(t, hostileRows(r, rows, cols), cols)
		}
	}
}

// TestSoftmaxRowsAliasing: out may be logits itself.
func TestSoftmaxRowsAliasing(t *testing.T) {
	x := hostileRows(NewRNG(3), 70, 37)
	want := make([]float32, len(x))
	SoftmaxRows(want, x, 37)
	SoftmaxRows(x, x, 37)
	for i := range want {
		if math.Float32bits(x[i]) != math.Float32bits(want[i]) {
			t.Fatalf("in place: element %d = %v, out of place %v", i, x[i], want[i])
		}
	}
}

// TestSoftmaxMatchesMathExp: on seeded N(0, 4²) logits — 100,000
// 10-class and 10,000 100-class rows — the softmax of the fixed
// exponential equals, in float32, the softmax of math.Exp on this host.
// The two exponentials differ in the last float64 bit on a share of
// these inputs; the float32 rounding of the normalized output hides it.
func TestSoftmaxMatchesMathExp(t *testing.T) {
	for _, shape := range []struct{ rows, cols int }{{100000, 10}, {10000, 100}} {
		r := NewRNG(uint64(shape.cols))
		x := make([]float32, shape.rows*shape.cols)
		for i := range x {
			x[i] = r.NormFloat32() * 4
		}
		got := make([]float32, len(x))
		SoftmaxRows(got, x, shape.cols)
		want := make([]float32, shape.cols)
		for i := 0; i < len(x); i += shape.cols {
			softmaxRef(want, x[i:i+shape.cols], math.Exp)
			for j, w := range want {
				if math.Float32bits(got[i+j]) != math.Float32bits(w) {
					t.Fatalf("%d-class row %d, class %d: %v, math.Exp softmax %v", shape.cols, i/shape.cols, j, got[i+j], w)
				}
			}
		}
	}
}

// FuzzSoftmaxMatchesPortable holds SoftmaxRows, with useAVX2 set and
// cleared, to the per-row reference on ragged shapes of hostile rows,
// and the exponential kernel to expPortable on the raw float64 bits of
// the input, so on every value the fuzzer can reach.
func FuzzSoftmaxMatchesPortable(f *testing.F) {
	f.Add(uint8(3), uint16(10), uint64(1), []byte{})
	f.Add(uint8(70), uint16(15), uint64(2), []byte("\x00\x00\x00\x00\x00\x40\x87\xc0"))
	f.Add(uint8(9), uint16(300), uint64(3), []byte("\x00\x00\x00\x00\x00\x00\xf8\x7f\x00\x00\x00\x00\x00\x00\xf0\xff"))
	f.Fuzz(func(t *testing.T, rows8 uint8, cols16 uint16, seed uint64, raw []byte) {
		rows, cols := int(rows8)%71, int(cols16)%300+1
		checkSoftmaxRows(t, hostileRows(NewRNG(seed), rows, cols), cols)
		x := make([]float64, len(raw)/8)
		for i := range x {
			var b uint64
			for j := 7; j >= 0; j-- {
				b = b<<8 | uint64(raw[8*i+j])
			}
			x[i] = math.Float64frombits(b)
		}
		checkExp(t, x)
	})
}

// BenchmarkSoftmaxRows times one 256-row block at 10 and 100 classes.
func BenchmarkSoftmaxRows(b *testing.B) {
	for _, cols := range []int{10, 100} {
		b.Run(map[int]string{10: "c10", 100: "c100"}[cols], func(b *testing.B) {
			r := NewRNG(1)
			x := make([]float32, 256*cols)
			for i := range x {
				x[i] = r.NormFloat32() * 4
			}
			out := make([]float32, len(x))
			b.SetBytes(int64(4 * len(x)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SoftmaxRows(out, x, cols)
			}
		})
	}
}
