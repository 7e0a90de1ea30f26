// Micro-kernel dispatch and the portable Go kernels.
//
// Every dense kernel computes a tile of dst from A values and packed
// 8-wide B panels (see gemm.go). A is addressed through two strides —
// rs between the tile's A rows, ks between consecutive k — so natural
// rows (rs = lda, ks = 1) and the columns of a transposed operand
// (rs = 1, ks = lda) run the same kernels. Each wrapper picks the
// instruction set: the AVX assembly when the CPU has it, else the
// portable Go below. The Go kernels are the reference semantics: the AVX kernels
// compute the identical per-element operation chain (one IEEE-754
// single-precision multiply and one add per term, ascending k, from
// +0, folded into dst once), so both produce bit-identical output.
package tensor

// useAVX routes the kernels through the AVX assembly. It is
// cpuAVXOK in every build; tests clear it to force the portable
// kernels, which must agree bit for bit.
var useAVX = cpuAVXOK

// micro4x16 accumulates the 4×16 dst tile at d (rows ldd apart) with
// the products of four A rows against two adjacent panels p0 and p1
// over len(p0)/8 terms. The slicing bounds-checks every pointer handed
// to assembly once per call.
//
//nessa:hotpath
func micro4x16(d []float32, ldd int, a []float32, rs, ks int, p0, p1 []float32) {
	kn := len(p0) / panelW
	if kn == 0 {
		return
	}
	d = d[:3*ldd+2*panelW]
	a = a[:3*rs+(kn-1)*ks+1]
	p1 = p1[:len(p0)]
	if useAVX {
		avxMicro4x16(&d[0], ldd, &a[0], rs, ks, &p0[0], &p1[0], kn)
		return
	}
	goMicro4x8(d, ldd, a, rs, ks, p0)
	goMicro4x8(d[panelW:], ldd, a, rs, ks, p1)
}

// micro4x8 is micro4x16 on one panel.
//
//nessa:hotpath
func micro4x8(d []float32, ldd int, a []float32, rs, ks int, p []float32) {
	kn := len(p) / panelW
	if kn == 0 {
		return
	}
	d = d[:3*ldd+panelW]
	a = a[:3*rs+(kn-1)*ks+1]
	if useAVX {
		avxMicro4x8(&d[0], ldd, &a[0], rs, ks, &p[0], kn)
		return
	}
	goMicro4x8(d, ldd, a, rs, ks, p)
}

// micro1x8 is the row-tail kernel: one A row against one panel.
//
//nessa:hotpath
func micro1x8(d, a []float32, ks int, p []float32) {
	kn := len(p) / panelW
	if kn == 0 {
		return
	}
	d = d[:panelW]
	a = a[:(kn-1)*ks+1]
	if useAVX {
		avxMicro1x8(&d[0], &a[0], ks, &p[0], kn)
		return
	}
	goMicro1x8(d, a, ks, p)
}

// skipRow folds d += src[kk·stride]·b.Row(kk) for every nonzero
// src element, term by term in ascending kk — the sparse skip bands'
// chain. The AVX form lists the nonzeros once into off
// and val (the band worker's skip list, room for b.Rows terms), then holds each 32-column chunk of d in
// registers across all of them; the portable form is one axpy per
// nonzero term.
//
//nessa:hotpath
func skipRow(d, src []float32, stride int, b *Matrix, off []int, val []float32) {
	k, m := b.Rows, b.Cols
	src = src[:(k-1)*stride+1]
	d = d[:m]
	if !useAVX {
		for kk := 0; kk < k; kk++ {
			//nessa:bce-ok one strided scalar load per m-wide axpy; stride defeats the prover
			if av := src[kk*stride]; av != 0 {
				axpyRow(d, b.Row(kk), av)
			}
		}
		return
	}
	off, val = off[:k], val[:k]
	nnz := avxGatherNZ(&src[0], k, stride, &off[0], &val[0], 4*m)
	if nnz == 0 {
		return
	}
	bd := b.Data[:k*m]
	avxSkipRow(&d[0], m, &bd[0], &off[0], &val[0], nnz)
}

// axpyRow adds alpha·src into dst element-wise, one rounded multiply
// then one add per element.
//
//nessa:hotpath
func axpyRow(dst, src []float32, alpha float32) {
	if len(src) != len(dst) {
		panic("tensor: axpyRow length mismatch")
	}
	for j, v := range src {
		// Round the product before the add (no FMA; see goMicro1x8).
		dst[j] += float32(alpha * v)
	}
}

// goMicro4x8 is the portable 4×8 kernel: four rows of goMicro1x8 on
// the same panel.
//
//nessa:hotpath
func goMicro4x8(d []float32, ldd int, a []float32, rs, ks int, p []float32) {
	for r := 0; r < gemmMR; r++ {
		goMicro1x8(d[r*ldd:], a[r*rs:], ks, p)
	}
}

// goMicro1x8 accumulates the 8 dst elements d[0:8] with the products
// of one A row (a[kk·ks]) against one packed panel. Every accumulator
// starts at +0, adds in ascending k, and is folded into dst once.
//
//nessa:hotpath
func goMicro1x8(d, a []float32, ks int, p []float32) {
	kn := len(p) / panelW
	if kn == 0 {
		return
	}
	var c0, c1, c2, c3, c4, c5, c6, c7 float32
	p = p[:panelW*kn]
	for k := 0; k < kn; k++ {
		// One slice check in place of eight index checks: pb has
		// constant length panelW, so pb[0..7] are provably in bounds.
		pb := p[k*panelW:][:panelW]
		//nessa:bce-ok one strided A load per eight multiply-adds; stride ks defeats the prover
		av := a[k*ks]
		// Each product is rounded to float32 by an explicit
		// conversion before its add: the spec lets `x*y + z` fuse into
		// one FMA (a single rounding) even through an assigned
		// temporary, and only a conversion forbids it. The AVX kernels
		// round the same way, so the two paths are bit-identical on
		// every architecture.
		m0, m1, m2, m3 := float32(av*pb[0]), float32(av*pb[1]), float32(av*pb[2]), float32(av*pb[3])
		c0, c1, c2, c3 = c0+m0, c1+m1, c2+m2, c3+m3
		m4, m5, m6, m7 := float32(av*pb[4]), float32(av*pb[5]), float32(av*pb[6]), float32(av*pb[7])
		c4, c5, c6, c7 = c4+m4, c5+m5, c6+m6, c7+m7
	}
	d = d[:panelW]
	d[0] += c0
	d[1] += c1
	d[2] += c2
	d[3] += c3
	d[4] += c4
	d[5] += c5
	d[6] += c6
	d[7] += c7
}
