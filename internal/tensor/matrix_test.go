package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float32) bool {
	return float32(math.Abs(float64(a-b))) <= tol
}

func TestMatMulHandChecked(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{5, 6}, {7, 8}})
	dst := NewMatrix(2, 2)
	MatMul(dst, a, b)
	want := [][]float32{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if dst.At(i, j) != want[i][j] {
				t.Errorf("MatMul[%d][%d] = %v, want %v", i, j, dst.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := NewRNG(7)
	a := NewMatrix(4, 4)
	a.FillNormal(r, 1)
	id := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	dst := NewMatrix(4, 4)
	MatMul(dst, a, id)
	for i := range a.Data {
		if !almostEq(dst.Data[i], a.Data[i], 1e-6) {
			t.Fatalf("A·I != A at %d: %v vs %v", i, dst.Data[i], a.Data[i])
		}
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	r := NewRNG(11)
	a := NewMatrix(3, 5)
	b := NewMatrix(4, 5)
	a.FillNormal(r, 1)
	b.FillNormal(r, 1)

	bt := NewMatrix(5, 4)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	want := NewMatrix(3, 4)
	MatMul(want, a, bt)
	got := NewMatrix(3, 4)
	MatMulTransB(got, a, b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("MatMulTransB mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	r := NewRNG(13)
	a := NewMatrix(6, 3)
	b := NewMatrix(6, 4)
	a.FillNormal(r, 1)
	b.FillNormal(r, 1)

	at := NewMatrix(3, 6)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := NewMatrix(3, 4)
	MatMul(want, at, b)
	got := NewMatrix(3, 4)
	MatMulTransAAcc(got, a, b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("MatMulTransAAcc mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2))
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(16)
		logits := make([]float32, n)
		for i := range logits {
			logits[i] = r.NormFloat32() * 10
		}
		out := make([]float32, n)
		SoftmaxRows(out, logits, n)
		var sum float64
		for _, p := range out {
			if p < 0 || p > 1 || math.IsNaN(float64(p)) {
				return false
			}
			sum += float64(p)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStableUnderLargeLogits(t *testing.T) {
	logits := []float32{1000, 1001, 999}
	out := make([]float32, 3)
	SoftmaxRows(out, logits, 3)
	if Argmax(out) != 1 {
		t.Errorf("argmax = %d, want 1", Argmax(out))
	}
	for _, p := range out {
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
			t.Fatalf("softmax produced non-finite value %v", p)
		}
	}
}

func TestSqDistSymmetricNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(32)
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = r.NormFloat32()
			b[i] = r.NormFloat32()
		}
		d1 := SqDist(a, b)
		d2 := SqDist(b, a)
		return d1 >= 0 && almostEq(d1, d2, 1e-5) && SqDist(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestArgmax(t *testing.T) {
	cases := []struct {
		in   []float32
		want int
	}{
		{nil, -1},
		{[]float32{3}, 0},
		{[]float32{1, 5, 2}, 1},
		{[]float32{5, 5, 2}, 0}, // ties to lowest index
		{[]float32{-3, -1, -2}, 1},
	}
	for _, c := range cases {
		if got := Argmax(c.in); got != c.want {
			t.Errorf("Argmax(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDotAndNorm(t *testing.T) {
	a := []float32{3, 4}
	if got := Norm(a); !almostEq(got, 5, 1e-6) {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := Dot(a, a); !almostEq(got, 25, 1e-6) {
		t.Errorf("Dot = %v, want 25", got)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float32{{1, 2}, {3}})
}
