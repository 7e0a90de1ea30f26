package tensor

import (
	"testing"

	"nessa/internal/parallel"
)

func fillDeterministic(m *Matrix, seed float32) {
	for i := range m.Data {
		m.Data[i] = seed + float32(i%17) - 8 + float32(float32(i%5)*0.25)
	}
}

// TestGEMMSteadyStateAllocs locks the zero-allocation dispatch in for
// the tensor layer itself: once panels, tasks, worker IDs, and skip
// lists are warm, parallel GEMM calls allocate nothing, on the dense
// and the sparse path.
func TestGEMMSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	prevW := parallel.Default().Workers()
	parallel.SetDefaultWorkers(4)
	defer parallel.SetDefaultWorkers(prevW)
	n, k, m := 64, 96, 64
	a := NewMatrix(n, k)
	at := NewMatrix(k, n)
	b := NewMatrix(k, m)
	bt := NewMatrix(m, k)
	fillDeterministic(a, 1)
	fillDeterministic(at, 1)
	fillDeterministic(b, 2)
	fillDeterministic(bt, 2)
	as, ats := a.Clone(), at.Clone()
	sparsify(as)
	sparsify(ats)
	dst := NewMatrix(n, m)
	loops := map[string]func(){
		"MatMul":                 func() { MatMul(dst, a, b) },
		"MatMulTransB":           func() { MatMulTransB(dst, a, bt) },
		"MatMulTransAAcc":        func() { MatMulTransAAcc(dst, at, b) },
		"MatMul/sparse":          func() { MatMul(dst, as, b) },
		"MatMulTransAAcc/sparse": func() { MatMulTransAAcc(dst, ats, b) },
	}
	for name, loop := range loops {
		for i := 0; i < 3; i++ {
			loop()
		}
		if avg := testing.AllocsPerRun(50, loop); avg > 0 {
			t.Errorf("%s allocates %.2f times per call in steady state, want 0", name, avg)
		}
	}
}
