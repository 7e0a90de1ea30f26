package tensor

import (
	"math"
	"testing"

	"nessa/internal/parallel"
)

// withFastTier runs f with the fast tier active, restoring the
// bit-exact default afterwards. Skips when the host cannot run
// AVX2/FMA.
func withFastTier(t *testing.T, f func()) {
	t.Helper()
	if !FastMathSupported() {
		if SetFastMath(true) {
			t.Fatal("SetFastMath(true) claims active on unsupported hardware")
		}
		SetFastMath(false)
		t.Skip("AVX2/FMA unavailable on this host")
	}
	if !SetFastMath(true) {
		t.Fatal("SetFastMath(true) inactive on supported hardware")
	}
	defer SetFastMath(false)
	f()
}

func fillDeterministic(m *Matrix, seed float32) {
	for i := range m.Data {
		m.Data[i] = seed + float32(i%17) - 8 + float32(i%5)*0.25
	}
}

func maxRelErr(a, b *Matrix) float64 {
	worst := 0.0
	for i := range a.Data {
		x, y := float64(a.Data[i]), float64(b.Data[i])
		d := math.Abs(x - y)
		if m := math.Max(math.Abs(x), math.Abs(y)); m > 1 {
			d /= m
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestFastTierWithinTolerance compares every GEMM layout on the fast
// tier against the bit-exact reference: close within the documented
// tolerance, never bit-required to match.
func TestFastTierWithinTolerance(t *testing.T) {
	// Awkward shapes: row tails, column tails, odd k — once inside one
	// gemmKC block and once across a block boundary with a ragged last
	// block.
	for _, k := range []int{41, gemmKC + 41} {
		fastTierWithinTolerance(t, 37, k, 43)
	}
}

func fastTierWithinTolerance(t *testing.T, n, k, m int) {
	a := NewMatrix(n, k)
	at := NewMatrix(k, n)
	b := NewMatrix(k, m)
	bt := NewMatrix(m, k)
	fillDeterministic(a, 0.5)
	fillDeterministic(at, 0.5)
	fillDeterministic(b, -1.25)
	fillDeterministic(bt, -1.25)

	ref := NewMatrix(n, m)
	got := NewMatrix(n, m)
	check := func(name string) {
		if err := maxRelErr(ref, got); err > FastTierTolerance {
			t.Errorf("%s k=%d: fast tier diverges by %.3g (tolerance %.3g)", name, k, err, FastTierTolerance)
		}
	}

	MatMul(ref, a, b)
	withFastTier(t, func() { MatMul(got, a, b) })
	check("MatMul")

	MatMulTransB(ref, a, bt)
	withFastTier(t, func() { MatMulTransB(got, a, bt) })
	check("MatMulTransB")

	MatMulTransA(ref, at, b)
	withFastTier(t, func() { MatMulTransA(got, at, b) })
	check("MatMulTransA")

	fillDeterministic(ref, 2)
	fillDeterministic(got, 2)
	MatMulTransAAcc(ref, at, b)
	withFastTier(t, func() { MatMulTransAAcc(got, at, b) })
	check("MatMulTransAAcc")
}

// TestFastTierWorkerCountInvariant pins the fast tier's determinism
// contract: not bit-exact with the default tier, but bit-identical to
// itself across worker counts.
func TestFastTierWorkerCountInvariant(t *testing.T) {
	// Odd shapes so every product has row, column, and tile tails:
	// automatic band boundaries move with the worker count, which is
	// exactly where a tile/tail association mismatch shows up. The
	// second k spans a gemmKC block boundary.
	for _, k := range []int{96, gemmKC + 96} {
		fastTierWorkerCountInvariant(t, 63, k, 41)
	}
}

func fastTierWorkerCountInvariant(t *testing.T, n, k, m int) {
	a := NewMatrix(n, k)
	b := NewMatrix(k, m)
	at := NewMatrix(k, n)
	bt := NewMatrix(m, k)
	fillDeterministic(a, 1.5)
	fillDeterministic(b, -0.75)
	fillDeterministic(at, 0.9)
	fillDeterministic(bt, -1.1)

	ops := []struct {
		name string
		run  func(dst *Matrix)
	}{
		{"MatMul", func(dst *Matrix) { MatMul(dst, a, b) }},
		{"MatMulTransB", func(dst *Matrix) { MatMulTransB(dst, a, bt) }},
		{"MatMulTransA", func(dst *Matrix) { MatMulTransA(dst, at, b) }},
	}
	withFastTier(t, func() {
		prevW := parallel.Default().Workers()
		defer parallel.SetDefaultWorkers(prevW)
		for _, op := range ops {
			parallel.SetDefaultWorkers(1)
			serial := NewMatrix(n, m)
			op.run(serial)
			for _, w := range []int{2, 3, 7} {
				parallel.SetDefaultWorkers(w)
				got := NewMatrix(n, m)
				op.run(got)
				for i := range got.Data {
					if got.Data[i] != serial.Data[i] {
						t.Fatalf("%s k=%d not worker-count invariant at workers=%d, element %d: %x vs %x",
							op.name, k, w, i, math.Float32bits(got.Data[i]), math.Float32bits(serial.Data[i]))
					}
				}
			}
		}
	})
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
		"MatMul":              func() { MatMul(dst, a, b) },
		"MatMulTransB":        func() { MatMulTransB(dst, a, bt) },
		"MatMulTransA":        func() { MatMulTransA(dst, at, b) },
		"MatMulTransAAcc":     func() { MatMulTransAAcc(dst, at, b) },
		"MatMul/sparse":       func() { MatMul(dst, as, b) },
		"MatMulTransA/sparse": func() { MatMulTransA(dst, ats, b) },
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
