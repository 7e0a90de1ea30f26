package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"nessa/internal/tensor"
)

func TestModelRoundTrip(t *testing.T) {
	r := tensor.NewRNG(1)
	m := NewMLP(r, 12, []int{24, 16}, 5)
	back := NewMLP(tensor.NewRNG(99), 12, []int{24, 16}, 5)
	if err := UnmarshalModelInto(back, MarshalModel(m)); err != nil {
		t.Fatal(err)
	}
	for li, l := range m.Layers {
		bl := back.Layers[li]
		for i := range l.W.Data {
			if bl.W.Data[i] != l.W.Data[i] {
				t.Fatalf("layer %d weight %d mismatch", li, i)
			}
		}
		for i := range l.B {
			if bl.B[i] != l.B[i] {
				t.Fatalf("layer %d bias %d mismatch", li, i)
			}
		}
	}
}

func TestModelRoundTripPredictionsIdentical(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		hidden := []int{1 + r.Intn(16)}
		m := NewMLP(r, 1+r.Intn(8), hidden, 2+r.Intn(5))
		back := NewMLP(r, m.In, hidden, m.Classes)
		if err := UnmarshalModelInto(back, MarshalModel(m)); err != nil {
			return false
		}
		x := tensor.NewMatrix(4, m.In)
		x.FillNormal(r, 1)
		a := m.Forward(x).Clone()
		b := back.Forward(x)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	r := tensor.NewRNG(2)
	m := NewMLP(r, 4, []int{6}, 3)
	buf := MarshalModel(m)

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xff; return c }},
		{"bad version", func(b []byte) []byte { c := append([]byte(nil), b...); c[4] = 99; return c }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"trailing bytes", func(b []byte) []byte { return append(append([]byte(nil), b...), 0) }},
		{"empty", func([]byte) []byte { return nil }},
	}
	for _, c := range cases {
		if err := UnmarshalModelInto(NewMLP(r, 4, []int{6}, 3), c.mutate(buf)); err == nil {
			t.Errorf("%s: corruption accepted", c.name)
		}
	}
	// Architecture mismatch: a model built for a different hidden width.
	if err := UnmarshalModelInto(NewMLP(r, 4, []int{7}, 3), buf); err == nil {
		t.Error("layer-shape mismatch accepted")
	}
}

// trainStep drives one synthetic SGD step so the optimizer's velocity
// buffers are non-trivial before snapshotting.
func trainStep(r *tensor.RNG, m *MLP, opt *SGD) {
	g := NewGrads(m)
	x := tensor.NewMatrix(8, m.In)
	x.FillNormal(r, 1)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = r.Intn(m.Classes)
	}
	logits := m.Forward(x)
	d := tensor.NewMatrix(8, m.Classes)
	SoftmaxCEInto(make([]float32, 8), nil, logits, labels, nil, d)
	g.Zero()
	m.Backward(g, d)
	opt.Step(m, g)
}

func TestSGDRoundTripResumesIdentically(t *testing.T) {
	r := tensor.NewRNG(5)
	m := NewMLP(r, 6, []int{10}, 4)
	opt := NewSGD(m, PaperSGD())
	for i := 0; i < 3; i++ {
		trainStep(r, m, opt)
	}
	opt.SetLR(0.02)

	modelBuf, optBuf := MarshalModel(m), MarshalSGD(opt)
	back := NewMLP(tensor.NewRNG(99), 6, []int{10}, 4)
	if err := UnmarshalModelInto(back, modelBuf); err != nil {
		t.Fatal(err)
	}
	opt2 := NewSGD(back, PaperSGD())
	if err := UnmarshalSGDInto(opt2, optBuf); err != nil {
		t.Fatal(err)
	}
	if opt2.LR() != opt.LR() {
		t.Fatalf("restored LR %v, want %v", opt2.LR(), opt.LR())
	}
	// The real contract: another identical step from both pairs lands
	// on bit-identical weights — velocities came back exactly.
	ra, rb := tensor.NewRNG(77), tensor.NewRNG(77)
	trainStep(ra, m, opt)
	trainStep(rb, back, opt2)
	for li := range m.Layers {
		for i := range m.Layers[li].W.Data {
			if m.Layers[li].W.Data[i] != back.Layers[li].W.Data[i] {
				t.Fatalf("post-restore step diverged at layer %d weight %d", li, i)
			}
		}
	}
}

func TestUnmarshalSGDRejectsCorruption(t *testing.T) {
	r := tensor.NewRNG(6)
	m := NewMLP(r, 4, []int{6}, 3)
	opt := NewSGD(m, PaperSGD())
	buf := MarshalSGD(opt)
	fresh := func() *SGD { return NewSGD(m, PaperSGD()) }

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xff; return c }},
		{"bad version", func(b []byte) []byte { c := append([]byte(nil), b...); c[4] = 99; return c }},
		{"zero lr", func(b []byte) []byte { c := append([]byte(nil), b...); c[8], c[9], c[10], c[11] = 0, 0, 0, 0; return c }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"trailing bytes", func(b []byte) []byte { return append(append([]byte(nil), b...), 0) }},
		{"empty", func([]byte) []byte { return nil }},
	}
	for _, c := range cases {
		if err := UnmarshalSGDInto(fresh(), c.mutate(buf)); err == nil {
			t.Errorf("%s: corruption accepted", c.name)
		}
	}
	// Architecture mismatch: optimizer built for a different model.
	other := NewSGD(NewMLP(r, 4, []int{7}, 3), PaperSGD())
	if err := UnmarshalSGDInto(other, buf); err == nil {
		t.Error("layer-shape mismatch accepted")
	}
}

func TestUnmarshalRejectsInconsistentDims(t *testing.T) {
	r := tensor.NewRNG(3)
	m := NewMLP(r, 4, nil, 3)
	buf := MarshalModel(m)
	// Header says 5 classes but the single layer has 3 output rows.
	buf[12] = 5
	if err := UnmarshalModelInto(m, buf); err == nil {
		t.Fatal("class/width mismatch accepted")
	}
}

// allocatedBy reports the bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// codecRig is the fixed architecture the hostile-input table and the
// fuzz targets decode into: 4→6→3, one optimizer step taken so the
// velocities are non-zero.
func codecRig() (m *MLP, opt *SGD, modelBlob, sgdBlob []byte) {
	r := tensor.NewRNG(8)
	m = NewMLP(r, 4, []int{6}, 3)
	opt = NewSGD(m, PaperSGD())
	trainStep(r, m, opt)
	return m, opt, MarshalModel(m), MarshalSGD(opt)
}

func words(vs ...uint32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

func patched(b []byte, off int, v uint32) []byte {
	c := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(c[off:], v)
	return c
}

// TestDecodersSurviveHostileInput: both decoders fill tensors the
// configuration sized, so a hostile count is a comparison that fails,
// never an allocation. The first case is the 28-byte header that made
// the fresh-allocating UnmarshalModel ask for 16 GiB.
func TestDecodersSurviveHostileInput(t *testing.T) {
	m, opt, modelBlob, sgdBlob := codecRig()
	type hostile struct {
		name string
		buf  []byte
	}
	model := []hostile{
		{"rows = 0x3fffffff, 28 bytes", words(modelMagic, modelVersion, 4, 3, 2, 0x3fffffff, 4)},
		{"layers = 0xffffffff", patched(modelBlob, 16, 0xffffffff)},
		{"in = 0xffffffff", patched(modelBlob, 8, 0xffffffff)},
		{"layer 1 cols = 0xffffffff", patched(modelBlob, 20+8+4*(6*4+6)+4, 0xffffffff)},
	}
	sgd := []hostile{
		{"rows = 0x3fffffff, 24 bytes", words(sgdMagic, sgdVersion, 0x3c23d70a, 2, 0x3fffffff, 4)},
		{"layers = 0xffffffff", patched(sgdBlob, 12, 0xffffffff)},
		{"lr = NaN", patched(sgdBlob, 8, 0x7fc00000)},
	}
	for off := 0; off < len(modelBlob); off += 4 {
		model = append(model, hostile{fmt.Sprintf("truncated to %d bytes", off), modelBlob[:off]})
	}
	for off := 0; off < len(sgdBlob); off += 4 {
		sgd = append(sgd, hostile{fmt.Sprintf("truncated to %d bytes", off), sgdBlob[:off]})
	}
	check := func(format string, cases []hostile, decode func([]byte) error) {
		for _, c := range cases {
			var err error
			got := allocatedBy(func() { err = decode(c.buf) })
			if err == nil {
				t.Errorf("%s %s: accepted", format, c.name)
			}
			if got >= 1<<20 {
				t.Errorf("%s %s: allocated %d bytes before failing", format, c.name, got)
			}
		}
	}
	check("model", model, func(b []byte) error { return UnmarshalModelInto(m, b) })
	check("optimizer", sgd, func(b []byte) error { return UnmarshalSGDInto(opt, b) })
}

// The two fuzz targets share one property: the decoder returns an
// error or the decoded state marshals back to the input byte for
// byte; it never panics and allocates no more than a small multiple
// of the input.
func fuzzCodec(f *testing.F, valid []byte, hostile []byte, roundTrip func([]byte) ([]byte, error)) {
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, b []byte) {
		var again []byte
		var err error
		if got := allocatedBy(func() { again, err = roundTrip(b) }); got > 16<<10+4*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), got)
		}
		if err == nil && !bytes.Equal(again, b) {
			t.Fatalf("accepted %d bytes that marshal back differently", len(b))
		}
	})
}

func FuzzUnmarshalModelInto(f *testing.F) {
	m, _, blob, _ := codecRig()
	fuzzCodec(f, blob, words(modelMagic, modelVersion, 4, 3, 2, 0x3fffffff, 4), func(b []byte) ([]byte, error) {
		if err := UnmarshalModelInto(m, b); err != nil {
			return nil, err
		}
		return MarshalModel(m), nil
	})
}

func FuzzUnmarshalSGDInto(f *testing.F) {
	_, opt, _, blob := codecRig()
	fuzzCodec(f, blob, words(sgdMagic, sgdVersion, 0x3c23d70a, 2, 0x3fffffff, 4), func(b []byte) ([]byte, error) {
		if err := UnmarshalSGDInto(opt, b); err != nil {
			return nil, err
		}
		return MarshalSGD(opt), nil
	})
}
