package tensor

import (
	"testing"

	"nessa/internal/parallel"
)

// TestGEMMParallelSerialBitIdentical verifies the banded parallel GEMM
// produces bit-identical output to the serial path for all three
// layouts: every dst row accumulates in the same inner order
// regardless of banding.
func TestGEMMParallelSerialBitIdentical(t *testing.T) {
	r := NewRNG(21)
	a := NewMatrix(130, 70)
	b := NewMatrix(70, 90)
	bt := NewMatrix(90, 70)
	a.FillNormal(r, 1)
	b.FillNormal(r, 1)
	bt.FillNormal(r, 1)

	type gemm struct {
		name       string
		run        func(dst *Matrix)
		rows, cols int
	}
	cases := []gemm{
		{"MatMul", func(d *Matrix) { MatMul(d, a, b) }, a.Rows, b.Cols},
		{"MatMulTransB", func(d *Matrix) { MatMulTransB(d, a, bt) }, a.Rows, bt.Rows},
		{"MatMulTransAAcc", func(d *Matrix) { matMulTransA(d, b, b) }, b.Cols, b.Cols},
	}
	for _, tc := range cases {
		serial := NewMatrix(tc.rows, tc.cols)
		par := NewMatrix(tc.rows, tc.cols)
		parallel.SetDefaultWorkers(1)
		tc.run(serial)
		parallel.SetDefaultWorkers(8)
		tc.run(par)
		parallel.SetDefaultWorkers(0)
		for i := range serial.Data {
			if serial.Data[i] != par.Data[i] {
				t.Fatalf("%s: element %d differs: %v (serial) vs %v (parallel)",
					tc.name, i, serial.Data[i], par.Data[i])
			}
		}
	}
}

// BenchmarkMatMulParallel measures the blocked GEMM on a selection-
// model-sized product at 1 worker vs all cores.
func BenchmarkMatMulParallel(b *testing.B) {
	r := NewRNG(4)
	x := NewMatrix(512, 256)
	w := NewMatrix(256, 256)
	dst := NewMatrix(512, 256)
	x.FillNormal(r, 1)
	w.FillNormal(r, 1)
	for _, workers := range []int{1, 0} { // 0 = NumCPU
		name := "workers=1"
		if workers == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			parallel.SetDefaultWorkers(workers)
			defer parallel.SetDefaultWorkers(0)
			b.SetBytes(int64(x.Rows) * int64(x.Cols) * int64(w.Cols) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(dst, x, w)
			}
		})
	}
}
