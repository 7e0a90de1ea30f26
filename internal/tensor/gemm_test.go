package tensor

import (
	"testing"

	"nessa/internal/parallel"
)

// Naive reference products, accumulating in ascending k like the
// blocked kernels claim to.
func refMatMul(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float32
			for k := 0; k < a.Cols; k++ {
				sum += float32(a.At(i, k) * b.At(k, j))
			}
			dst.Set(i, j, sum)
		}
	}
}

func refMatMulTransB(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var sum float32
			for k := 0; k < a.Cols; k++ {
				sum += float32(a.At(i, k) * b.At(j, k))
			}
			dst.Set(i, j, sum)
		}
	}
}

// matMulTransA is dst = aᵀ·b: MatMulTransAAcc into a cleared dst, as
// backprop runs it on a freshly zeroed gradient.
func matMulTransA(dst, a, b *Matrix) {
	dst.Zero()
	MatMulTransAAcc(dst, a, b)
}

func refMatMulTransA(dst, a, b *Matrix) {
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float32
			for k := 0; k < a.Rows; k++ {
				sum += float32(a.At(k, i) * b.At(k, j))
			}
			dst.Set(i, j, sum)
		}
	}
}

// kernelSets names the bit-exact kernel sets this host can run: the
// portable Go kernels everywhere, the AVX assembly where the CPU has
// it. withKernels runs f on one of them and restores the default.
func kernelSets() []bool {
	if cpuAVXOK {
		return []bool{true, false}
	}
	return []bool{false}
}

func withKernels(avx bool, f func()) {
	defer func(prev bool) { useAVX = prev }(useAVX)
	useAVX = avx
	f()
}

func kernelSetName(avx bool) string {
	if avx {
		return "avx"
	}
	return "portable"
}

// TestBlockedGEMMMatchesReference sweeps shapes around every tail
// boundary of the 4×16 / 4×8 micro-kernels and the 8-wide panels
// (rows%4, cols%8 and cols%16, a padded last panel, tiny k, long k)
// and checks all three blocked kernels against the naive
// ascending-k reference, bit for bit, on every kernel set the host
// runs.
func TestBlockedGEMMMatchesReference(t *testing.T) {
	r := NewRNG(99)
	shapes := []struct{ n, k, m int }{
		{1, 1, 1}, {1, 3, 5}, {2, 2, 2}, {3, 7, 3}, {4, 4, 4},
		{5, 9, 6}, {7, 16, 9}, {8, 8, 8}, {13, 31, 17}, {16, 64, 12},
		{33, 5, 33}, {64, 2, 3}, {3, 600, 7}, {9, 2051, 10},
		{15, 23, 15}, {16, 16, 16}, {17, 40, 17}, {31, 9, 31}, {33, 70, 33},
		{100, 19, 100}, {6, 257, 257}, {257, 11, 24},
	}
	for _, avx := range kernelSets() {
		withKernels(avx, func() {
			for _, s := range shapes {
				a := NewMatrix(s.n, s.k)
				b := NewMatrix(s.k, s.m)
				bt := NewMatrix(s.m, s.k)
				at := NewMatrix(s.k, s.n)
				a.FillNormal(r, 1)
				b.FillNormal(r, 1)
				bt.FillNormal(r, 1)
				at.FillNormal(r, 1)

				got := NewMatrix(s.n, s.m)
				want := NewMatrix(s.n, s.m)
				name := kernelSetName(avx)

				MatMul(got, a, b)
				refMatMul(want, a, b)
				compare(t, name+"/MatMul", s.n, s.k, s.m, got, want)

				MatMulTransB(got, a, bt)
				refMatMulTransB(want, a, bt)
				compare(t, name+"/MatMulTransB", s.n, s.k, s.m, got, want)

				matMulTransA(got, at, b)
				refMatMulTransA(want, at, b)
				compare(t, name+"/MatMulTransAAcc", s.n, s.k, s.m, got, want)
			}
		})
	}
}

func compare(t *testing.T, name string, n, k, m int, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s %dx%dx%d: element %d = %v, want %v (bitwise)",
				name, n, k, m, i, got.Data[i], want.Data[i])
		}
	}
}

// TestBlockedGEMMWorkerCountInvariant runs each kernel at several
// worker counts on a shape with both row and column tails and demands
// bit-identical output — the determinism contract the training loop
// (serial-vs-parallel trajectory guard) builds on.
func TestBlockedGEMMWorkerCountInvariant(t *testing.T) {
	r := NewRNG(123)
	a := NewMatrix(131, 67)
	b := NewMatrix(67, 93)
	bt := NewMatrix(93, 67)
	at := NewMatrix(67, 131)
	a.FillNormal(r, 1)
	b.FillNormal(r, 1)
	bt.FillNormal(r, 1)
	at.FillNormal(r, 1)

	kernels := []struct {
		name string
		run  func(dst *Matrix)
		rows int
	}{
		{"MatMul", func(d *Matrix) { MatMul(d, a, b) }, a.Rows},
		{"MatMulTransB", func(d *Matrix) { MatMulTransB(d, a, bt) }, a.Rows},
		{"MatMulTransAAcc", func(d *Matrix) { matMulTransA(d, at, b) }, at.Cols},
	}
	defer parallel.SetDefaultWorkers(0)
	for _, kc := range kernels {
		parallel.SetDefaultWorkers(1)
		serial := NewMatrix(kc.rows, b.Cols)
		kc.run(serial)
		for _, w := range []int{2, 3, 8, 16} {
			parallel.SetDefaultWorkers(w)
			par := NewMatrix(kc.rows, b.Cols)
			kc.run(par)
			for i := range serial.Data {
				if serial.Data[i] != par.Data[i] {
					t.Fatalf("%s workers=%d: element %d differs: %v vs %v",
						kc.name, w, i, serial.Data[i], par.Data[i])
				}
			}
		}
	}
}

// sparsify zeroes a deterministic ~60% of m's elements so the
// sparsity-adaptive skip bands engage.
func sparsify(m *Matrix) {
	for i := range m.Data {
		if (i*2654435761)%10 < 6 {
			m.Data[i] = 0
		}
	}
}

// TestSparseGEMMMatchesReference drives MatMul and MatMulTransAAcc with
// ReLU-like sparse A operands — the regime where the zero-skipping
// bands take over — and checks them against the dense ascending-k
// reference, bit for bit on finite data.
func TestSparseGEMMMatchesReference(t *testing.T) {
	r := NewRNG(7)
	shapes := []struct{ n, k, m int }{
		{1, 1, 1}, {5, 9, 6}, {13, 31, 17}, {33, 5, 33}, {128, 64, 64},
	}
	for _, s := range shapes {
		a := NewMatrix(s.n, s.k)
		at := NewMatrix(s.k, s.n)
		b := NewMatrix(s.k, s.m)
		a.FillNormal(r, 1)
		at.FillNormal(r, 1)
		b.FillNormal(r, 1)
		sparsify(a)
		sparsify(at)

		got := NewMatrix(s.n, s.m)
		want := NewMatrix(s.n, s.m)

		MatMul(got, a, b)
		refMatMul(want, a, b)
		compare(t, "MatMul/sparse", s.n, s.k, s.m, got, want)

		// The accumulating form into a zeroed dst is bit-identical to
		// the plain product — the contract backprop relies on.
		matMulTransA(got, at, b)
		refMatMulTransA(want, at, b)
		compare(t, "MatMulTransAAcc/sparse", s.n, s.k, s.m, got, want)
	}
}

// TestMatMulTransAAccDense checks the accumulating form on a dense
// operand (micro-kernel path): bit-identical to the plain product from
// a zeroed dst, and numerically dst0 + aᵀ·b from a nonzero dst (the
// folding order of the appended terms is path-dependent, so the
// nonzero case is checked to float tolerance).
func TestMatMulTransAAccDense(t *testing.T) {
	r := NewRNG(17)
	at := NewMatrix(37, 13)
	b := NewMatrix(37, 11)
	at.FillNormal(r, 1)
	b.FillNormal(r, 1)
	prod := NewMatrix(13, 11)
	refMatMulTransA(prod, at, b)

	got := NewMatrix(13, 11)
	MatMulTransAAcc(got, at, b)
	compare(t, "MatMulTransAAcc/dense-zero", 13, 37, 11, got, prod)

	got.FillNormal(r, 1)
	dst0 := got.Clone()
	MatMulTransAAcc(got, at, b)
	for i := range got.Data {
		want := dst0.Data[i] + prod.Data[i]
		diff := got.Data[i] - want
		if diff < -1e-4 || diff > 1e-4 {
			t.Fatalf("MatMulTransAAcc nonzero dst: element %d = %v, want ≈ %v", i, got.Data[i], want)
		}
	}
}

// TestSparseGEMMWorkerCountInvariant pins the skip bands to the same
// any-worker-count bitwise contract as the dense kernels, on row and
// column counts around the 16-column tile and the skip kernel's
// 32-column register chunk. The path choice itself depends only on
// operand data, never the worker count.
func TestSparseGEMMWorkerCountInvariant(t *testing.T) {
	defer parallel.SetDefaultWorkers(0)
	for _, m := range []int{15, 16, 17, 31, 33, 93, 100, 257} {
		r := NewRNG(29)
		a := NewMatrix(131, 67)
		at := NewMatrix(67, 131)
		b := NewMatrix(67, m)
		a.FillNormal(r, 1)
		at.FillNormal(r, 1)
		b.FillNormal(r, 1)
		sparsify(a)
		sparsify(at)

		kernels := []struct {
			name string
			run  func(dst *Matrix)
			rows int
		}{
			{"MatMul", func(d *Matrix) { MatMul(d, a, b) }, a.Rows},
			{"MatMulTransAAcc", func(d *Matrix) { matMulTransA(d, at, b) }, at.Cols},
		}
		for _, kc := range kernels {
			parallel.SetDefaultWorkers(1)
			serial := NewMatrix(kc.rows, b.Cols)
			kc.run(serial)
			for _, w := range []int{2, 3, 8} {
				parallel.SetDefaultWorkers(w)
				par := NewMatrix(kc.rows, b.Cols)
				kc.run(par)
				for i := range serial.Data {
					if serial.Data[i] != par.Data[i] {
						t.Fatalf("%s sparse m=%d workers=%d: element %d differs: %v vs %v",
							kc.name, m, w, i, serial.Data[i], par.Data[i])
					}
				}
			}
		}
	}
}

// TestMatMulTransAAccWorkerCountInvariant pins the accumulating
// product into a *nonzero* dst to one result at every worker count.
// Band boundaries move with the worker count, so a dst row lands in a
// 4-row tile at one count and in a band's row tail at another: both
// must sum the row's terms first and fold the sum into dst once.
func TestMatMulTransAAccWorkerCountInvariant(t *testing.T) {
	r := NewRNG(41)
	a := NewMatrix(300, 203)
	b := NewMatrix(300, 37)
	dst0 := NewMatrix(203, 37)
	a.FillNormal(r, 1)
	b.FillNormal(r, 1)
	dst0.FillNormal(r, 1)

	defer parallel.SetDefaultWorkers(0)
	parallel.SetDefaultWorkers(1)
	serial := dst0.Clone()
	MatMulTransAAcc(serial, a, b)
	for _, w := range []int{2, 3, 5, 8} {
		parallel.SetDefaultWorkers(w)
		got := dst0.Clone()
		MatMulTransAAcc(got, a, b)
		differ := 0
		for i := range got.Data {
			if got.Data[i] != serial.Data[i] {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("workers=%d: %d of %d elements differ from workers=1", w, differ, len(got.Data))
		}
	}
}

// TestGatherRows checks the fused permuted copy.
func TestGatherRows(t *testing.T) {
	src := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	dst := NewMatrix(3, 2)
	GatherRows(dst, src, []int{3, 0, 2})
	want := []float32{7, 8, 1, 2, 5, 6}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("GatherRows data[%d] = %v, want %v", i, dst.Data[i], v)
		}
	}
}

func TestGatherRowsShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	GatherRows(NewMatrix(2, 2), NewMatrix(4, 3), []int{0, 1})
}

// BenchmarkGEMMKernels measures the blocked micro-kernels at training
// shapes (forward TransB, gradient TransA, backprop MatMul) serially —
// the per-core throughput the training hot path sees.
func BenchmarkGEMMKernels(b *testing.B) {
	r := NewRNG(8)
	x := NewMatrix(128, 256)   // batch × features
	w := NewMatrix(256, 256)   // out × in (TransB operand)
	d := NewMatrix(128, 256)   // delta
	dst := NewMatrix(128, 256) // activations
	dw := NewMatrix(256, 256)  // weight grads
	x.FillNormal(r, 1)
	w.FillNormal(r, 1)
	d.FillNormal(r, 1)
	flops := int64(2) * 128 * 256 * 256

	parallel.SetDefaultWorkers(1)
	defer parallel.SetDefaultWorkers(0)
	b.Run("TransB", func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			MatMulTransB(dst, x, w)
		}
	})
	b.Run("TransA", func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			MatMulTransAAcc(dw, d, x)
		}
	})
	ds := d.Clone()
	sparsify(ds)
	b.Run("TransA-sparse", func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			MatMulTransAAcc(dw, ds, x)
		}
	})
	b.Run("MatMul", func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			MatMul(dst, d, w)
		}
	})
}
