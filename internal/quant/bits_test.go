package quant

import (
	"math"
	"testing"
	"testing/quick"

	"nessa/internal/nn"
	"nessa/internal/tensor"
)

func TestQuantizeBitsRoundTripErrorBound(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		bits := 2 + r.Intn(15)
		m := tensor.NewMatrix(1+r.Intn(6), 1+r.Intn(6))
		m.FillNormal(r, 2)
		q := quantizeInto(nil, m, bits)
		d := q.dequantizeInto(nil)
		for i := range m.Data {
			if math.Abs(float64(m.Data[i]-d.Data[i])) > float64(float64(q.Scale)/2)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// int8Reference is the int8 quantizer this package had as a separate
// type until it was folded into the bits = 8 case: ±127 codes held in
// int8, one byte each on the wire plus the 4-byte scale.
func int8Reference(m *tensor.Matrix) (scale float32, codes []int8) {
	codes = make([]int8, len(m.Data))
	var maxAbs float32
	for _, v := range m.Data {
		maxAbs = max(maxAbs, float32(math.Abs(float64(v))))
	}
	if maxAbs == 0 {
		return 1, codes
	}
	scale = maxAbs / 127
	inv := 1 / scale
	for i, v := range m.Data {
		codes[i] = int8(max(-127, min(127, math.Round(float64(v*inv)))))
	}
	return scale, codes
}

// TestQuantizeBitsMatchesInt8AtEight: QuantizeModel — the feedback
// path core and the end-to-end benchmark run — equals the int8
// reference bit for bit on random MLPs: scale, every dequantized
// weight, every bias and the wire size.
func TestQuantizeBitsMatchesInt8AtEight(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := tensor.NewRNG(seed)
		m := nn.NewMLP(r, 1+r.Intn(40), []int{1 + r.Intn(64), 1 + r.Intn(32)}, 2+r.Intn(20))
		qm := QuantizeModel(m)
		deq := qm.Dequantized()
		var size int64
		for li, l := range m.Layers {
			scale, codes := int8Reference(l.W)
			size += int64(len(codes)) + 4 + int64(4*len(l.B))
			if got := qm.Weights[li].Scale; got != scale {
				t.Fatalf("seed %d layer %d: scale %v, int8 reference %v", seed, li, got, scale)
			}
			for i, c := range codes {
				if got, want := deq.Layers[li].W.Data[i], float32(c)*scale; got != want {
					t.Fatalf("seed %d layer %d weight %d: %v, int8 reference %v", seed, li, i, got, want)
				}
			}
			for i, b := range l.B {
				if deq.Layers[li].B[i] != b {
					t.Fatalf("seed %d layer %d bias %d changed", seed, li, i)
				}
			}
		}
		if got := qm.SizeBytes(); got != size {
			t.Fatalf("seed %d: SizeBytes %d, int8 reference %d", seed, got, size)
		}
	}
}

func TestQuantizeBitsRejectsBadWidths(t *testing.T) {
	m := nn.NewMLP(tensor.NewRNG(1), 2, nil, 2)
	for _, bits := range []int{0, 1, 17, -3} {
		if _, err := QuantizeModelBits(m, bits); err == nil {
			t.Errorf("bit width %d accepted", bits)
		}
	}
}

func TestBitErrorShrinksWithWidth(t *testing.T) {
	r := tensor.NewRNG(7)
	m := tensor.NewMatrix(20, 20)
	m.FillNormal(r, 1)
	var prev float64 = math.Inf(1)
	for _, bits := range []int{2, 4, 8, 12, 16} {
		q := quantizeInto(nil, m, bits)
		d := q.dequantizeInto(nil)
		var worst float64
		for i := range m.Data {
			if e := math.Abs(float64(m.Data[i] - d.Data[i])); e > worst {
				worst = e
			}
		}
		if worst > prev {
			t.Fatalf("error grew from %v to %v at %d bits", prev, worst, bits)
		}
		prev = worst
	}
}

func TestBitSizePacking(t *testing.T) {
	m := tensor.NewMatrix(4, 4) // 16 elements
	q4 := quantizeInto(nil, m, 4)
	// 16 × 4 bits = 8 bytes + 4-byte scale.
	if got := q4.SizeBytes(); got != 12 {
		t.Fatalf("4-bit size = %d, want 12", got)
	}
	q8 := quantizeInto(nil, m, 8)
	if got := q8.SizeBytes(); got != 20 {
		t.Fatalf("8-bit size = %d, want 20", got)
	}
}

func TestBitModelAgreementImprovesWithWidth(t *testing.T) {
	r := tensor.NewRNG(11)
	m := nn.NewMLP(r, 16, []int{32}, 10)
	x := tensor.NewMatrix(128, 16)
	x.FillNormal(r, 1)

	var prev float64 = -1
	for _, bits := range []int{2, 4, 8, 16} {
		qm, err := QuantizeModelBits(m, bits)
		if err != nil {
			t.Fatal(err)
		}
		agr := AgreementWithFloat(m, qm, x)
		if agr < prev-0.05 {
			t.Fatalf("agreement regressed at %d bits: %v -> %v", bits, prev, agr)
		}
		prev = agr
	}
	// 16-bit quantization should be essentially lossless for argmax.
	if prev < 0.99 {
		t.Fatalf("16-bit agreement = %v, want ~1", prev)
	}
}

func TestBitModelSizeScalesWithBits(t *testing.T) {
	r := tensor.NewRNG(13)
	m := nn.NewMLP(r, 64, []int{128}, 10)
	q4, _ := QuantizeModelBits(m, 4)
	q8, _ := QuantizeModelBits(m, 8)
	q16, _ := QuantizeModelBits(m, 16)
	if !(q4.SizeBytes() < q8.SizeBytes() && q8.SizeBytes() < q16.SizeBytes()) {
		t.Fatalf("sizes not increasing: %d, %d, %d", q4.SizeBytes(), q8.SizeBytes(), q16.SizeBytes())
	}
	// 16-bit payload should be roughly 2× the 8-bit payload.
	ratio := float64(q16.SizeBytes()) / float64(q8.SizeBytes())
	if ratio < 1.7 || ratio > 2.2 {
		t.Fatalf("16/8 bit size ratio = %v, want ~2", ratio)
	}
}

func TestAgreementEmptyBatch(t *testing.T) {
	r := tensor.NewRNG(17)
	m := nn.NewMLP(r, 4, nil, 3)
	qm, _ := QuantizeModelBits(m, 8)
	if got := AgreementWithFloat(m, qm, tensor.NewMatrix(0, 4)); got != 0 {
		t.Fatalf("empty batch agreement = %v, want 0", got)
	}
}
