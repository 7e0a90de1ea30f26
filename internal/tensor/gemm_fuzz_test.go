package tensor

import (
	"math"
	"testing"
)

// FuzzGEMMMatchesPortable runs every GEMM layout on random shapes —
// empty and single rows, columns and inner dimensions, column tails
// that are not a multiple of 8 or 16, short and long k — with a dense
// or a sparsified A, and compares the AVX kernels against the portable
// Go kernels, which they must match bit for bit.
func FuzzGEMMMatchesPortable(f *testing.F) {
	f.Add(uint8(0), uint16(5), uint8(3), uint64(1), false)
	f.Add(uint8(1), uint16(1), uint8(1), uint64(2), true)
	f.Add(uint8(4), uint16(0), uint8(9), uint64(3), false)
	f.Add(uint8(17), uint16(255), uint8(33), uint64(4), false)
	f.Add(uint8(6), uint16(257), uint8(16), uint64(5), true)
	f.Add(uint8(33), uint16(513), uint8(17), uint64(6), false)
	f.Fuzz(func(t *testing.T, n8 uint8, k16 uint16, m8 uint8, seed uint64, sparse bool) {
		n, k, m := int(n8)%41, int(k16)%600, int(m8)%71
		r := NewRNG(seed)
		a, at := NewMatrix(n, k), NewMatrix(k, n)
		b, bt := NewMatrix(k, m), NewMatrix(m, k)
		for _, x := range []*Matrix{a, at, b, bt} {
			x.FillNormal(r, 1)
		}
		if sparse {
			sparsify(a)
			sparsify(at)
		}
		ops := []struct {
			name string
			run  func(dst *Matrix)
		}{
			{"MatMul", func(d *Matrix) { MatMul(d, a, b) }},
			{"MatMulTransB", func(d *Matrix) { MatMulTransB(d, a, bt) }},
			{"MatMulTransAAcc", func(d *Matrix) { d.Zero(); MatMulTransAAcc(d, at, b) }},
		}
		for _, op := range ops {
			want := NewMatrix(n, m)
			withKernels(false, func() { op.run(want) })
			if cpuAVXOK {
				got := NewMatrix(n, m)
				withKernels(true, func() { op.run(got) })
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%s %dx%dx%d sparse=%v: AVX element %d = %v, portable %v",
							op.name, n, k, m, sparse, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	})
}
