package quant

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nessa/internal/nn"
	"nessa/internal/tensor"
)

// quantize8 is the paper's width on one tensor.
func quantize8(m *tensor.Matrix) *Tensor {
	return quantizeInto(nil, m, 8)
}

func TestQuantizeRoundTripErrorBound(t *testing.T) {
	// Property: reconstruction error per element never exceeds Scale/2.
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		m := tensor.NewMatrix(1+r.Intn(8), 1+r.Intn(8))
		m.FillNormal(r, 3)
		q := quantize8(m)
		d := q.dequantizeInto(nil)
		for i := range m.Data {
			e := math.Abs(float64(m.Data[i] - d.Data[i]))
			if e > float64(float64(q.Scale)/2)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeZeroMatrix(t *testing.T) {
	m := tensor.NewMatrix(3, 3)
	q := quantize8(m)
	d := q.dequantizeInto(nil)
	for _, v := range d.Data {
		if v != 0 {
			t.Fatalf("zero matrix round-trip produced %v", v)
		}
	}
}

func TestQuantizeExtremesMapTo127(t *testing.T) {
	m := tensor.FromRows([][]float32{{-2, 0, 2}})
	q := quantize8(m)
	if q.Data[0] != -127 || q.Data[2] != 127 {
		t.Fatalf("extremes = %d, %d; want -127, 127", q.Data[0], q.Data[2])
	}
	if q.Data[1] != 0 {
		t.Fatalf("zero maps to %d, want 0", q.Data[1])
	}
}

func TestQuantizeSignSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		m := tensor.NewMatrix(2, 4)
		m.FillNormal(r, 1)
		neg := m.Clone()
		for i := range neg.Data {
			neg.Data[i] = -neg.Data[i]
		}
		qa, qb := quantize8(m), quantize8(neg)
		for i := range qa.Data {
			if qa.Data[i] != -qb.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeModelRoundTripKeepsPredictions(t *testing.T) {
	r := tensor.NewRNG(5)
	m := nn.NewMLP(r, 16, []int{32}, 10)
	x := tensor.NewMatrix(32, 16)
	x.FillNormal(r, 1)

	orig := m.Forward(x).Clone()
	deq := QuantizeModel(m).Dequantized()
	got := deq.Forward(x)

	agree := 0
	for i := 0; i < x.Rows; i++ {
		if tensor.Argmax(orig.Row(i)) == tensor.Argmax(got.Row(i)) {
			agree++
		}
	}
	// int8 weights should rarely flip an argmax on random inputs.
	if agree < x.Rows*9/10 {
		t.Fatalf("only %d/%d predictions survived quantization", agree, x.Rows)
	}
}

func TestModelSizeBytes(t *testing.T) {
	r := tensor.NewRNG(6)
	m := nn.NewMLP(r, 4, nil, 3)
	qm := QuantizeModel(m)
	// One layer: 12 int8 weights + 4-byte scale + 3 float32 biases.
	want := int64(12 + 4 + 12)
	if got := qm.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestMaxAbsErrorWithinHalfScale(t *testing.T) {
	r := tensor.NewRNG(8)
	m := tensor.NewMatrix(10, 10)
	m.FillNormal(r, 2)
	q := quantize8(m)
	d := q.dequantizeInto(nil)
	var worst float32
	for i := range m.Data {
		if e := float32(math.Abs(float64(m.Data[i] - d.Data[i]))); e > worst {
			worst = e
		}
	}
	if worst > float32(q.Scale/2)+1e-6 {
		t.Fatalf("max abs error %v exceeds scale/2 = %v", worst, q.Scale/2)
	}
}

// TestQuantizeIntoSteadyStateAllocs: refreshing a selection model in
// place — QuantizeModelInto then DequantizedInto over the previous
// snapshot — gives exactly the fresh snapshot's tensors, including a
// layer that quantizes to all zeros, and allocates nothing once warm.
func TestQuantizeIntoSteadyStateAllocs(t *testing.T) {
	r := tensor.NewRNG(5)
	m := nn.NewMLP(r, 12, []int{16}, 4)
	qm := QuantizeModelInto(nil, m)
	sel := qm.DequantizedInto(nil)
	for step := 0; step < 3; step++ {
		m.Layers[0].W.FillNormal(r, 1)
		if step == 2 {
			clear(m.Layers[1].W.Data) // a scale-1, all-zero layer over a nonzero one
		}
		qm = QuantizeModelInto(qm, m)
		sel = qm.DequantizedInto(sel)
		want := QuantizeModel(m).Dequantized()
		for i, l := range want.Layers {
			got := sel.Layers[i]
			if !slices.Equal(got.W.Data, l.W.Data) || !slices.Equal(got.B, l.B) {
				t.Fatalf("step %d layer %d: in-place snapshot differs from a fresh one", step, i)
			}
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		qm = QuantizeModelInto(qm, m)
		sel = qm.DequantizedInto(sel)
	})
	if allocs != 0 {
		t.Fatalf("a warm in-place refresh made %.0f allocations, want 0", allocs)
	}
}
