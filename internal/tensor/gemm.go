// Blocked GEMM kernels: cache-blocked, register-tiled matrix products
// behind the deterministic row-band parallel dispatch.
//
// All three layouts (MatMul, MatMulTransA, MatMulTransB) share one
// structure:
//
//   - The B-side operand is packed once per call into k-interleaved
//     *panels* (persistent pooled scratch, zero steady-state
//     allocation), so the innermost loop reads one sequential stream
//     instead of several strided ones. Panels are 4-wide on the
//     bit-exact tier and 8-wide on the AVX2/FMA fast tier.
//   - Destination rows are computed by a register micro-kernel (4×4
//     bit-exact, 4×8 fast tier). Each dst element owns exactly one
//     accumulator that adds products in ascending k — the same
//     association order as the naive serial loop — so bit-exact
//     outputs are identical for any worker count and any band split.
//   - On the bit-exact tier the accumulator chain over k is never
//     split: a strip-wise partial-sum scheme would re-associate the
//     floating-point sums and break bitwise reproducibility, so cache
//     locality comes from the panel layout (sequential streams
//     prefetch well at any k) rather than k-blocking. The fast tier is
//     explicitly allowed to fuse multiply-adds (FMA) and to block over
//     k (every gemmKC terms) — its results differ from the bit-exact
//     tier within a documented tolerance but remain deterministic and
//     worker-count invariant, because the association order is still
//     fixed by the data layout alone.
//   - Row tails (< 4 rows per band) use a 1-row micro-kernel; column
//     tails (cols % NR) fall back to scalar loops with the identical
//     accumulation order.
//   - MatMul and MatMulTransA additionally carry a *sparsity-adaptive*
//     path: when the A-side operand has a meaningful fraction of exact
//     zeros — which ReLU-masked gradient matrices always do — an
//     axpy-style band that skips zero A elements beats the dense
//     micro-kernel, because every skipped element removes real
//     multiply-adds while the accumulation order of the surviving terms
//     is unchanged. The path choice depends only on the operand data,
//     never on the worker count, so results remain reproducible across
//     worker counts. (Skipping an exact-zero term can flip the sign of
//     an exact-zero output or drop a NaN/Inf propagation; training data
//     is finite and sign-of-zero is invisible to ==, so the contract
//     holds wherever it is observed.)
//
// # Zero-allocation dispatch
//
// Parallel dispatch bands over destination rows: each output row is
// written by one band, and banding never changes what a band computes,
// only who computes it. A dispatch allocates nothing in steady state:
// the per-call band descriptors (gemmTask) come from a free list and
// carry closures pre-bound at construction, B panels come from a
// persistent buffer free list, and the per-band A strips of
// MatMulTransA live in a parallel.WorkerLocal arena keyed by the
// worker ID the pool hands each band.
package tensor

import (
	"fmt"
	"sync"

	"nessa/internal/parallel"
)

const (
	// gemmMR × gemmNR is the bit-exact register micro-tile. 4×4 needs
	// 16 float32 accumulators — what the amd64/arm64 register files
	// hold without spilling — and cuts A/B load traffic 4× versus the
	// naive loop.
	gemmMR = 4
	gemmNR = 4
	// gemmNRFast is the fast-tier panel width: one 8-lane YMM vector
	// per dst row in the AVX2/FMA micro-kernels.
	gemmNRFast = 8
)

// gemmParallelFlops is the approximate multiply-add count below which
// a GEMM runs serially: small products (a few thousand flops) finish
// faster than the goroutine fan-out costs. Above it, the product is
// banded over destination rows on the shared worker pool. Each output
// element accumulates in the same ascending-k order as the serial
// loop, so results are bit-identical for any worker count.
const gemmParallelFlops = 64 * 1024

// gemmNRActive reports the panel width of the active kernel tier.
//
//nessa:hotpath
func gemmNRActive() int {
	if fastKernels {
		return gemmNRFast
	}
	return gemmNR
}

// ---------------------------------------------------------------------
// Persistent scratch: panel buffers, strip arenas, task descriptors
// ---------------------------------------------------------------------

// panelFree recycles B-panel packing buffers. Unlike a sync.Pool it is
// never drained by the garbage collector, so once every holder has
// grown to the largest panel a workload packs, steady-state GEMM calls
// allocate nothing at all.
var panelFree struct {
	mu   sync.Mutex
	list []*[]float32
}

//nessa:hotpath
//nessa:scratch-ok ownership transfer: every caller returns the buffer with putPanel before it exits
func getPanel(n int) *[]float32 {
	pf := &panelFree
	pf.mu.Lock()
	var s *[]float32
	if ln := len(pf.list); ln > 0 {
		s = pf.list[ln-1]
		pf.list = pf.list[:ln-1]
	}
	pf.mu.Unlock()
	if s == nil {
		//nessa:alloc-ok free-list miss: first concurrent holder at this depth allocates; steady state reuses
		s = new([]float32)
	}
	if cap(*s) < n {
		//nessa:alloc-ok grow-once: a holder that has seen the workload's largest panel never grows again
		*s = make([]float32, n)
	}
	*s = (*s)[:n]
	return s
}

//nessa:hotpath
func putPanel(s *[]float32) {
	pf := &panelFree
	pf.mu.Lock()
	//nessa:alloc-ok amortized: the list caps at the peak concurrent holder count and never grows past it
	pf.list = append(pf.list, s)
	pf.mu.Unlock()
}

// stripArena holds the per-worker A-side packing strips of
// MatMulTransA: each band packs 4 A columns at a time into its own
// worker's strip, so concurrent bands never share a buffer and a warm
// worker never allocates.
var stripArena = parallel.NewWorkerLocal[[]float32](nil)

//nessa:hotpath
//nessa:scratch-ok bounded view: the strip is consumed inside the caller's band and never outlives the dispatch
func workerStrip(w, n int) []float32 {
	s := stripArena.Get(w)
	if cap(*s) < n {
		//nessa:alloc-ok grow-once per worker slot; steady-state bands reuse the strip
		*s = make([]float32, n)
	}
	return (*s)[:n]
}

// gemmTask is a pooled band-dispatch descriptor: the operands of one
// GEMM call plus closures pre-bound to the descriptor at construction,
// so handing the pool a band body never allocates a per-call closure.
type gemmTask struct {
	kind   uint8
	acc    bool
	dst    *Matrix
	a      *Matrix
	b      *Matrix
	packed []float32

	run     func(w, lo, hi int) // bound once to (*gemmTask).band
	runPack func(lo, hi int)    // bound once to (*gemmTask).pack
}

const (
	tkMatMul uint8 = iota
	tkMatMulSkip
	tkTransB
	tkTransA
	tkTransASkip
	tkPackCol
	tkPackRow
)

var gemmTaskFree struct {
	mu   sync.Mutex
	list []*gemmTask
}

//nessa:hotpath
//nessa:scratch-ok ownership transfer: every caller returns the descriptor with putGemmTask before it exits
func getGemmTask(kind uint8, dst, a, b *Matrix, packed []float32, acc bool) *gemmTask {
	gf := &gemmTaskFree
	gf.mu.Lock()
	var t *gemmTask
	if ln := len(gf.list); ln > 0 {
		t = gf.list[ln-1]
		gf.list = gf.list[:ln-1]
	}
	gf.mu.Unlock()
	if t == nil {
		//nessa:alloc-ok free-list miss: descriptor and its two bound closures are built once and recycled forever
		t = &gemmTask{}
		//nessa:alloc-ok method values allocate once per descriptor lifetime and are recycled with it
		t.run, t.runPack = t.band, t.pack
	}
	t.kind, t.dst, t.a, t.b, t.packed, t.acc = kind, dst, a, b, packed, acc
	return t
}

//nessa:hotpath
func putGemmTask(t *gemmTask) {
	t.dst, t.a, t.b, t.packed = nil, nil, nil, nil
	gf := &gemmTaskFree
	gf.mu.Lock()
	//nessa:alloc-ok amortized: the list caps at the peak concurrent descriptor count and never grows past it
	gf.list = append(gf.list, t)
	gf.mu.Unlock()
}

// band runs one row band of the descriptor's GEMM. w is the worker ID
// owning this band's scratch strips.
//
//nessa:hotpath
func (t *gemmTask) band(w, lo, hi int) {
	switch t.kind {
	case tkMatMul:
		matMulBand(t.dst, t.a, t.b, t.packed, lo, hi)
	case tkMatMulSkip:
		matMulSkipBand(t.dst, t.a, t.b, lo, hi)
	case tkTransB:
		matMulTransBBand(t.dst, t.a, t.b, t.packed, lo, hi)
	case tkTransA:
		matMulTransABand(t.dst, t.a, t.b, t.packed, t.acc, w, lo, hi)
	case tkTransASkip:
		matMulTransASkipBand(t.dst, t.a, t.b, t.acc, lo, hi)
	}
}

// pack runs one panel range of the descriptor's packing fan-out.
//
//nessa:hotpath
func (t *gemmTask) pack(lo, hi int) {
	switch t.kind {
	case tkPackCol:
		packColRange(t.packed, t.b, lo, hi)
	case tkPackRow:
		packRowRange(t.packed, t.b, lo, hi)
	}
}

// gemmGrain resolves the row-band width of a dispatch: the whole range
// when the product is too small to parallelize (the pool then runs one
// band inline on the calling goroutine), otherwise 0 for the pool's
// automatic banding.
//
//nessa:hotpath
func gemmGrain(rows, inner, cols int) int {
	if gemmSerial(rows, inner, cols) {
		return rows
	}
	return 0
}

// gemmSerial reports whether a product with the given inner dimension
// and output shape is too small to benefit from the pool.
//
//nessa:hotpath
func gemmSerial(rows, inner, cols int) bool {
	if parallel.Default().Workers() <= 1 {
		return true
	}
	return rows*inner*cols < gemmParallelFlops
}

// gemmSparseA reports whether at least 1/8 of a's elements are exact
// zeros, the break-even point past which the skip bands beat the dense
// micro-kernels. The counting pass is O(|a|) reads against O(|a|·m)
// multiply-adds saved, and the verdict depends only on the data, so the
// same inputs take the same path at every worker count.
//
//nessa:hotpath
func gemmSparseA(a *Matrix) bool {
	zeros := 0
	for _, v := range a.Data {
		if v == 0 {
			zeros++
		}
	}
	return zeros*8 >= len(a.Data)
}

// MatMul computes dst = a·b where a is (n×k) and b is (k×m).
// dst must be n×m and is overwritten; it must not alias a or b.
// Large products are banded over dst rows on the shared worker pool.
//
//nessa:hotpath
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch: (%dx%d)·(%dx%d) -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	if n == 0 || m == 0 {
		return
	}
	if k > 0 && gemmSparseA(a) {
		t := getGemmTask(tkMatMulSkip, dst, a, b, nil, false)
		parallel.Default().ForW(n, gemmGrain(n, k, m), t.run)
		putGemmTask(t)
		return
	}
	nr := gemmNRActive()
	np := m / nr
	var packed []float32
	var buf *[]float32
	if np > 0 && k > 0 {
		buf = getPanel(np * nr * k)
		packed = *buf
		packColPanels(packed, b, np)
	}
	t := getGemmTask(tkMatMul, dst, a, b, packed, false)
	parallel.Default().ForW(n, gemmGrain(n, k, m), t.run)
	putGemmTask(t)
	if buf != nil {
		putPanel(buf)
	}
}

// MatMulTransB computes dst = a·bᵀ where a is (n×k) and b is (m×k).
// dst must be n×m and must not alias a or b. This is the layout used
// for Dense layers whose weights are stored (out×in).
//
//nessa:hotpath
func MatMulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch: (%dx%d)·(%dx%d)ᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Rows
	if n == 0 || m == 0 {
		return
	}
	nr := gemmNRActive()
	np := m / nr
	var packed []float32
	var buf *[]float32
	if np > 0 && k > 0 {
		buf = getPanel(np * nr * k)
		packed = *buf
		packRowPanels(packed, b, np)
	}
	t := getGemmTask(tkTransB, dst, a, b, packed, false)
	parallel.Default().ForW(n, gemmGrain(n, k, m), t.run)
	putGemmTask(t)
	if buf != nil {
		putPanel(buf)
	}
}

// MatMulTransA computes dst = aᵀ·b where a is (k×n) and b is (k×m).
// dst must be n×m and must not alias a or b. Used for weight
// gradients: dW = dOutᵀ·X. Bands cover dst rows (columns of a); within
// a band every element accumulates in ascending k, matching the serial
// order exactly.
//
//nessa:hotpath
func MatMulTransA(dst, a, b *Matrix) {
	matMulTransAInto(dst, a, b, false)
}

// MatMulTransAAcc computes dst += aᵀ·b: the accumulating form backprop
// uses to add weight gradients directly into a freshly zeroed gradient
// tensor with no temporary and no extra pass. When dst is zero the
// result is bit-identical to MatMulTransA. For nonzero dst the terms
// still arrive in ascending k, but whether they are folded into dst
// one by one or summed first and added once differs between the tiled
// and skip paths — path choice depends only on operand data, so the
// output remains deterministic and worker-count invariant either way.
//
//nessa:hotpath
func MatMulTransAAcc(dst, a, b *Matrix) {
	matMulTransAInto(dst, a, b, true)
}

//nessa:hotpath
func matMulTransAInto(dst, a, b *Matrix, acc bool) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch: (%dx%d)ᵀ·(%dx%d) -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n, k, m := a.Cols, a.Rows, b.Cols
	if n == 0 || m == 0 {
		return
	}
	if k > 0 && gemmSparseA(a) {
		t := getGemmTask(tkTransASkip, dst, a, b, nil, acc)
		parallel.Default().ForW(n, gemmGrain(n, k, m), t.run)
		putGemmTask(t)
		return
	}
	nr := gemmNRActive()
	np := m / nr
	var packed []float32
	var buf *[]float32
	if np > 0 && k > 0 {
		buf = getPanel(np * nr * k)
		packed = *buf
		packColPanels(packed, b, np)
	}
	t := getGemmTask(tkTransA, dst, a, b, packed, acc)
	parallel.Default().ForW(n, gemmGrain(n, k, m), t.run)
	putGemmTask(t)
	if buf != nil {
		putPanel(buf)
	}
}

// packColPanels packs b's first np·NR columns into NR-wide
// k-interleaved panels: out[(jp·k + kk)·NR + c] = b[kk][jp·NR+c].
// Panels are disjoint, so packing parallelizes trivially for large
// operands.
//
//nessa:hotpath
func packColPanels(out []float32, b *Matrix, np int) {
	if np*b.Rows*gemmNRActive() >= gemmParallelFlops && parallel.Default().Workers() > 1 {
		t := getGemmTask(tkPackCol, nil, nil, b, out, false)
		parallel.Default().For(np, 1, t.runPack)
		putGemmTask(t)
		return
	}
	packColRange(out, b, 0, np)
}

//nessa:hotpath
func packColRange(out []float32, b *Matrix, lo, hi int) {
	if fastKernels {
		packColRange8(out, b, lo, hi)
		return
	}
	k := b.Rows
	for jp := lo; jp < hi; jp++ {
		j0 := jp * gemmNR
		o := jp * k * gemmNR
		for kk := 0; kk < k; kk++ {
			row := b.Row(kk)[j0 : j0+gemmNR]
			// Constant-length destination window: one slice check,
			// zero per-element index checks.
			d := out[o:][:gemmNR]
			d[0] = row[0]
			d[1] = row[1]
			d[2] = row[2]
			d[3] = row[3]
			o += gemmNR
		}
	}
}

// packRowPanels packs b's first np·NR rows (the columns of bᵀ) into
// the same panel layout: out[(jp·k + kk)·NR + c] = b[jp·NR+c][kk].
//
//nessa:hotpath
func packRowPanels(out []float32, b *Matrix, np int) {
	if np*b.Cols*gemmNRActive() >= gemmParallelFlops && parallel.Default().Workers() > 1 {
		t := getGemmTask(tkPackRow, nil, nil, b, out, false)
		parallel.Default().For(np, 1, t.runPack)
		putGemmTask(t)
		return
	}
	packRowRange(out, b, 0, np)
}

//nessa:hotpath
func packRowRange(out []float32, b *Matrix, lo, hi int) {
	if fastKernels {
		packRowRange8(out, b, lo, hi)
		return
	}
	k := b.Cols
	for jp := lo; jp < hi; jp++ {
		j0 := jp * gemmNR
		// The [:k] re-slices pin each row's length to the loop bound
		// and the [:gemmNR] window pins the destination's, so every
		// check below is discharged by the prover.
		r0, r1, r2, r3 := b.Row(j0)[:k], b.Row(j0 + 1)[:k], b.Row(j0 + 2)[:k], b.Row(j0 + 3)[:k]
		o := jp * k * gemmNR
		for kk := 0; kk < k; kk++ {
			d := out[o:][:gemmNR]
			d[0] = r0[kk]
			d[1] = r1[kk]
			d[2] = r2[kk]
			d[3] = r3[kk]
			o += gemmNR
		}
	}
}

// packAPanel packs gemmMR columns of a (starting at i0) over rows
// [k0,k1) into a 4-interleaved strip: pa[(kk−k0)·4 + r] = a[kk][i0+r].
//
//nessa:hotpath
func packAPanel(pa []float32, a *Matrix, i0, k0, k1 int) {
	o := 0
	for kk := k0; kk < k1; kk++ {
		row := a.Row(kk)[i0 : i0+gemmMR]
		d := pa[o:][:gemmMR]
		d[0] = row[0]
		d[1] = row[1]
		d[2] = row[2]
		d[3] = row[3]
		o += gemmMR
	}
}

// zeroRows clears dst rows [lo,hi).
//
//nessa:hotpath
//nessa:inline
func zeroRows(dst *Matrix, lo, hi int) {
	z := dst.Data[lo*dst.Cols : hi*dst.Cols]
	for i := range z {
		z[i] = 0
	}
}

// gemmPanelCore computes the paneled columns [0, np·NR) of dst rows
// [lo,hi) for a dot-product GEMM whose A rows are natural matrix rows.
// dst rows must be pre-zeroed; the micro-kernels accumulate.
//
//nessa:hotpath
func gemmPanelCore(dst, a *Matrix, packed []float32, np, lo, hi int) {
	if fastKernels {
		gemmPanelCoreFast(dst, a, packed, np, lo, hi)
		return
	}
	k := a.Cols
	for jp := 0; jp < np; jp++ {
		panel := packed[jp*k*gemmNR : (jp+1)*k*gemmNR]
		j0 := jp * gemmNR
		i := lo
		for ; i+gemmMR <= hi; i += gemmMR {
			gemmMicro4x4(dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3), j0,
				a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3), panel)
		}
		for ; i < hi; i++ {
			gemmMicro1x4(dst.Row(i), j0, a.Row(i), panel)
		}
	}
}

// matMulBand computes dst rows [lo,hi) of dst = a·b.
//
//nessa:hotpath
func matMulBand(dst, a, b *Matrix, packed []float32, lo, hi int) {
	k, m := a.Cols, b.Cols
	np := m / gemmNRActive()
	zeroRows(dst, lo, hi)
	gemmPanelCore(dst, a, packed, np, lo, hi)
	for j := np * gemmNRActive(); j < m; j++ {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			var sum float32
			for kk := 0; kk < k; kk++ {
				// Round each product before the add so the compiler
				// cannot fuse it into an FMA (bit-identity contract).
				//nessa:bce-ok column tail (< NR columns): the stride-m walk down b.Data defeats the prover
				t := arow[kk] * b.Data[kk*m+j]
				sum += t
			}
			dst.Row(i)[j] = sum
		}
	}
}

// matMulTransBBand computes dst rows [lo,hi) of dst = a·bᵀ.
//
//nessa:hotpath
func matMulTransBBand(dst, a, b *Matrix, packed []float32, lo, hi int) {
	m := b.Rows
	np := m / gemmNRActive()
	zeroRows(dst, lo, hi)
	gemmPanelCore(dst, a, packed, np, lo, hi)
	for j := np * gemmNRActive(); j < m; j++ {
		brow := b.Row(j)
		for i := lo; i < hi; i++ {
			//nessa:bce-ok one store per k-length Dot; j is a column-tail index the prover cannot bound
			dst.Row(i)[j] = Dot(a.Row(i), brow)
		}
	}
}

// matMulSkipBand computes dst rows [lo,hi) of dst = a·b for a sparse
// A operand, skipping zero A elements. b rows are read contiguously
// and each dst element accumulates in ascending k — the identical
// term order as the dense path, minus the zero products.
//
//nessa:hotpath
func matMulSkipBand(dst, a, b *Matrix, lo, hi int) {
	k := a.Cols
	for i := lo; i < hi; i++ {
		// [:k] ties the row length to the kk loop bound for the prover.
		arow := a.Row(i)[:k]
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			axpyRow(drow, b.Row(kk), av)
		}
	}
}

// matMulTransASkipBand computes dst rows [lo,hi) of dst = aᵀ·b (or
// dst += aᵀ·b when acc) for a sparse A operand — the ReLU-masked delta
// of backprop, where typically half the elements are exact zeros. The
// k-outer loop reads a and b rows sequentially; dst rows of the band
// stay cache-resident. Every dst element accumulates in ascending k.
//
//nessa:hotpath
func matMulTransASkipBand(dst, a, b *Matrix, acc bool, lo, hi int) {
	k := a.Rows
	if !acc {
		zeroRows(dst, lo, hi)
	}
	for kk := 0; kk < k; kk++ {
		brow := b.Row(kk)
		// Ranging over the band's window of the row keeps the sparse
		// scan check-free where an indexed arow[i] read would not be.
		for io, av := range a.Row(kk)[lo:hi] {
			if av == 0 {
				continue
			}
			axpyRow(dst.Row(lo+io), brow, av)
		}
	}
}

// matMulTransABand computes dst rows [lo,hi) of dst = aᵀ·b (or
// dst += aᵀ·b when acc). dst rows are columns of a, so the A side is
// packed per 4-row tile into the band worker's strip arena.
//
//nessa:hotpath
func matMulTransABand(dst, a, b *Matrix, packed []float32, acc bool, w, lo, hi int) {
	nr := gemmNRActive()
	k, m := a.Rows, b.Cols
	np := m / nr
	if !acc {
		zeroRows(dst, lo, hi)
	}
	iTileEnd := lo + (hi-lo)/gemmMR*gemmMR

	if np > 0 && iTileEnd > lo {
		pa := workerStrip(w, gemmMR*k)
		if fastKernels {
			transACoreFast(dst, a, packed, pa, np, lo, iTileEnd)
		} else {
			for i := lo; i < iTileEnd; i += gemmMR {
				packAPanel(pa, a, i, 0, k)
				for jp := 0; jp < np; jp++ {
					panel := packed[jp*k*gemmNR : (jp+1)*k*gemmNR]
					gemmMicroP4x4(dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3),
						jp*gemmNR, pa, panel)
				}
			}
		}
	}
	// On the fast tier the band's tail rows run the same per-row
	// blocked-FMA chain as the tiled rows: the tile/tail split moves
	// with the band boundaries (hence with the worker count), so the
	// two paths must agree bit-for-bit.
	scalarRowEnd := iTileEnd
	if fastKernels && np > 0 {
		pa := workerStrip(w, gemmMR*k)
		for i := iTileEnd; i < hi; i++ {
			transARowFast(dst.Row(i), a, packed, pa[:k], np, i)
		}
		scalarRowEnd = hi
	}
	// Column tail for the rows whose paneled columns are already
	// computed. += so the acc form composes; the non-acc form
	// pre-zeroed the band.
	for j := np * nr; j < m; j++ {
		for i := lo; i < scalarRowEnd; i++ {
			var sum float32
			for kk := 0; kk < k; kk++ {
				// Round each product before the add (no FMA).
				//nessa:bce-ok column tail (< NR columns): stride-walks down both Data arrays defeat the prover
				t := a.Data[kk*a.Cols+i] * b.Data[kk*m+j]
				sum += t
			}
			dst.Row(i)[j] += sum
		}
	}
	// Row tail (bit-exact tier, or a panel-less product): full width,
	// vectorized axpy per k step.
	for i := scalarRowEnd; i < hi; i++ {
		drow := dst.Row(i)
		for kk := 0; kk < k; kk++ {
			//nessa:bce-ok one strided scalar load per m-wide axpy; stride a.Cols defeats the prover
			axpyRow(drow, b.Row(kk), a.Data[kk*a.Cols+i])
		}
	}
}
