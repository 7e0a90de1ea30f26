// Fast-tier GEMM cores: the 8-wide packing and compute paths selected
// when fastKernels is set (SetFastMath(true) on a CPU with AVX2+FMA).
// These paths are *not* bit-exact with the default tier — the
// micro-kernels fuse each multiply-add into a single rounding and the
// accumulation over k is blocked every gemmKC terms — but they are
// fully deterministic and worker-count invariant: bands cover whole
// destination rows, and within a row the (jp, k-block, k) iteration
// order is fixed by the data layout alone.
//
// The sparse skip bands and all scalar tails stay on the bit-exact
// kernels even when the fast tier is active: only the dense paneled
// cores diverge, which keeps the documented tolerance small and makes
// sparse-dominated products identical across tiers.
package tensor

// gemmKC is the fast tier's k-block depth: a block's register sums are
// folded into dst once per block, so 256 keeps one 8-wide panel block
// at 8 KB — comfortably L1-resident across every row tile of a band.
const gemmKC = 256

// kcBlock clamps gemmKC to an inner dimension of k.
//
//nessa:hotpath
//nessa:inline
func kcBlock(k int) int {
	if k < gemmKC {
		return k
	}
	return gemmKC
}

// packColRange8 is the 8-wide form of packColRange:
// out[(jp·k + kk)·8 + c] = b[kk][jp·8+c].
//
//nessa:hotpath
func packColRange8(out []float32, b *Matrix, lo, hi int) {
	k := b.Rows
	for jp := lo; jp < hi; jp++ {
		j0 := jp * gemmNRFast
		o := jp * k * gemmNRFast
		for kk := 0; kk < k; kk++ {
			copy(out[o:o+gemmNRFast], b.Row(kk)[j0:j0+gemmNRFast])
			o += gemmNRFast
		}
	}
}

// packRowRange8 is the 8-wide form of packRowRange:
// out[(jp·k + kk)·8 + c] = b[jp·8+c][kk].
//
//nessa:hotpath
func packRowRange8(out []float32, b *Matrix, lo, hi int) {
	k := b.Cols
	for jp := lo; jp < hi; jp++ {
		j0 := jp * gemmNRFast
		// Named rows re-sliced to [:k] (the kk loop bound) and a
		// constant-length destination window keep the inner loop free
		// of per-element bounds checks.
		r0, r1, r2, r3 := b.Row(j0)[:k], b.Row(j0 + 1)[:k], b.Row(j0 + 2)[:k], b.Row(j0 + 3)[:k]
		r4, r5, r6, r7 := b.Row(j0 + 4)[:k], b.Row(j0 + 5)[:k], b.Row(j0 + 6)[:k], b.Row(j0 + 7)[:k]
		o := jp * k * gemmNRFast
		for kk := 0; kk < k; kk++ {
			d := out[o:][:gemmNRFast]
			d[0] = r0[kk]
			d[1] = r1[kk]
			d[2] = r2[kk]
			d[3] = r3[kk]
			d[4] = r4[kk]
			d[5] = r5[kk]
			d[6] = r6[kk]
			d[7] = r7[kk]
			o += gemmNRFast
		}
	}
}

// gemmPanelCoreFast computes the paneled columns [0, np·8) of dst rows
// [lo,hi) with the FMA micro-kernels. The k loop is blocked by KC with
// the block loop *outside* the row-tile loop, so one 8·KC panel block
// (8 KB at KC=256) stays L1-resident across every row tile of the
// band. Each dst element still receives its k blocks in ascending
// order — the reassociation relative to the bit-exact tier is only the
// per-block register folding and the FMA fusion.
//
//nessa:hotpath
func gemmPanelCoreFast(dst, a *Matrix, packed []float32, np, lo, hi int) {
	k := a.Cols
	kc := kcBlock(k)
	for jp := 0; jp < np; jp++ {
		base := jp * k * gemmNRFast
		j0 := jp * gemmNRFast
		for k0 := 0; k0 < k; k0 += kc {
			k1 := k0 + kc
			if k1 > k {
				k1 = k
			}
			panel := packed[base+k0*gemmNRFast : base+k1*gemmNRFast]
			i := lo
			for ; i+gemmMR <= hi; i += gemmMR {
				fmaKernel4x8(dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3), j0,
					a.Row(i)[k0:k1], a.Row(i + 1)[k0:k1], a.Row(i + 2)[k0:k1], a.Row(i + 3)[k0:k1], panel)
			}
			for ; i < hi; i++ {
				fmaKernel1x8(dst.Row(i), j0, a.Row(i)[k0:k1], panel)
			}
		}
	}
}

// transACoreFast is the fast-tier core of matMulTransABand: the band's
// A columns are packed per 4-row tile into the worker strip pa (full
// k), then each tile runs the both-sides-packed FMA kernel per panel
// and KC block.
//
//nessa:hotpath
func transACoreFast(dst, a *Matrix, packed, pa []float32, np, lo, iTileEnd int) {
	k := a.Rows
	kc := kcBlock(k)
	for i := lo; i < iTileEnd; i += gemmMR {
		packAPanel(pa, a, i, 0, k)
		for jp := 0; jp < np; jp++ {
			base := jp * k * gemmNRFast
			j0 := jp * gemmNRFast
			for k0 := 0; k0 < k; k0 += kc {
				k1 := k0 + kc
				if k1 > k {
					k1 = k
				}
				fmaKernelP4x8(dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3), j0,
					pa[k0*gemmMR:k1*gemmMR], packed[base+k0*gemmNRFast:base+k1*gemmNRFast])
			}
		}
	}
}

// transARowFast computes the paneled columns [0, np·8) of one dst row
// of aᵀ·b with exactly transACoreFast's per-element association — jp
// outer, ascending KC blocks, one FMA chain per block folded into dst —
// so a row produces identical bits whether banding lands it inside a
// 4-row tile or in a band's row tail. Without this the tile/tail split
// (which moves with the band boundaries, which move with the worker
// count) would make fast-tier results depend on the worker count. col is
// a worker-owned strip of at least k elements that receives the
// contiguous copy of a's column i.
//
//nessa:hotpath
func transARowFast(drow []float32, a *Matrix, packed, col []float32, np, i int) {
	k := a.Rows
	kc := kcBlock(k)
	// [:k] ties the strip length to the loop bound; the strided read
	// down a.Data stays checked (and waived): stride a.Cols defeats
	// the prover, and the gather runs once per k elements of FMA work.
	col = col[:k]
	for kk := 0; kk < k; kk++ {
		//nessa:bce-ok strided column gather, once per row: stride a.Cols defeats the prover
		col[kk] = a.Data[kk*a.Cols+i]
	}
	for jp := 0; jp < np; jp++ {
		base := jp * k * gemmNRFast
		j0 := jp * gemmNRFast
		for k0 := 0; k0 < k; k0 += kc {
			k1 := k0 + kc
			if k1 > k {
				k1 = k
			}
			fmaKernel1x8(drow, j0, col[k0:k1], packed[base+k0*gemmNRFast:base+k1*gemmNRFast])
		}
	}
}

// fmaKernel4x8 dispatches the 4×8 FMA micro-kernel. The slicing
// bounds-checks every pointer handed to assembly once per call.
// fastKernels implies hasFMAAsm, so there is no portable body: off
// amd64 (or without AVX2) this is never reached.
//
//nessa:hotpath
func fmaKernel4x8(d0, d1, d2, d3 []float32, j0 int, a0, a1, a2, a3, p []float32) {
	kn := len(a0)
	if kn == 0 {
		return
	}
	dv0 := d0[j0 : j0+gemmNRFast]
	dv1 := d1[j0 : j0+gemmNRFast]
	dv2 := d2[j0 : j0+gemmNRFast]
	dv3 := d3[j0 : j0+gemmNRFast]
	av1 := a1[:kn]
	av2 := a2[:kn]
	av3 := a3[:kn]
	pv := p[:gemmNRFast*kn]
	fmaMicro4x8(&dv0[0], &dv1[0], &dv2[0], &dv3[0],
		&a0[0], &av1[0], &av2[0], &av3[0], &pv[0], kn)
}

// fmaKernel1x8 dispatches the row-tail FMA micro-kernel.
//
//nessa:hotpath
func fmaKernel1x8(d []float32, j0 int, a, p []float32) {
	kn := len(a)
	if kn == 0 {
		return
	}
	dv := d[j0 : j0+gemmNRFast]
	pv := p[:gemmNRFast*kn]
	fmaMicro1x8(&dv[0], &a[0], &pv[0], kn)
}

// fmaKernelP4x8 dispatches the both-sides-packed FMA micro-kernel.
//
//nessa:hotpath
func fmaKernelP4x8(d0, d1, d2, d3 []float32, j0 int, pa, p []float32) {
	kn := len(pa) / gemmMR
	if kn == 0 {
		return
	}
	dv0 := d0[j0 : j0+gemmNRFast]
	dv1 := d1[j0 : j0+gemmNRFast]
	dv2 := d2[j0 : j0+gemmNRFast]
	dv3 := d3[j0 : j0+gemmNRFast]
	pav := pa[:gemmMR*kn]
	pv := p[:gemmNRFast*kn]
	fmaMicroP4x8(&dv0[0], &dv1[0], &dv2[0], &dv3[0], &pav[0], &pv[0], kn)
}
