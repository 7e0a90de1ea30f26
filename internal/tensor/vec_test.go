package tensor

import "testing"

func TestCloneDeep(t *testing.T) {
	m := FromRows([][]float32{{1, 2}})
	c := m.Clone()
	m.Set(0, 0, 99)
	if c.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestZero(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero left non-zero elements")
		}
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty FromRows = %dx%d, want 0x0", m.Rows, m.Cols)
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative shape")
		}
	}()
	NewMatrix(-1, 3)
}

func TestAddRowVec(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}})
	AddRowVec(m, []float32{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddRowVec result = %v", m.Data)
	}
}

func TestAddRowVecLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	AddRowVec(NewMatrix(1, 2), []float32{1})
}

func TestDotLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestSqDistLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	SqDist([]float32{1}, []float32{1, 2})
}

func TestSoftmaxLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	SoftmaxRows(make([]float32, 2), make([]float32, 3), 3)
}
