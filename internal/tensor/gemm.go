// Blocked GEMM kernels: cache-blocked, register-tiled matrix products
// behind the deterministic row-band parallel dispatch.
//
// All three layouts (MatMul, MatMulTransAAcc, MatMulTransB) share one
// structure and one tile loop (denseBand):
//
//   - The B-side operand is packed once per call into k-interleaved,
//     8-wide *panels* (persistent pooled scratch, zero steady-state
//     allocation), so the innermost loop reads one sequential stream
//     instead of several strided ones. Every build uses the same
//     panels; the last panel is padded when the column count is not a
//     multiple of 8.
//   - The A side is never packed: a kernel reads its four A rows
//     through a row stride and a k stride, which also covers the
//     columns of MatMulTransAAcc's transposed operand.
//   - Destination rows are computed by register micro-kernels: 4×16
//     (two adjacent panels, eight accumulators), 4×8 for an odd last
//     panel, 1×8 for the < 4 rows a band leaves over. Each dst element
//     owns exactly one accumulator that starts at +0, adds its
//     products in ascending k and is folded into dst once — the same
//     association order as the naive serial loop — so bit-exact
//     outputs are identical for any worker count and any band split.
//   - Every kernel rounds each product before its add (AVX
//     VMULPS+VADDPS, or the portable Go kernels on CPUs without AVX)
//     and never splits the chain over k: a strip-wise partial-sum
//     scheme would re-associate the sums and break bitwise
//     reproducibility, so cache locality comes from the panel layout
//     (sequential streams prefetch well at any k) rather than
//     k-blocking.
//   - The padded last panel (the < 8 column tail) runs the same
//     kernels through a scratch tile of which only the real columns
//     are copied back.
//   - MatMul and MatMulTransAAcc additionally carry a *sparsity-adaptive*
//     path: when the A-side operand has a meaningful fraction of exact
//     zeros — which ReLU-masked gradient matrices always do — a band
//     that skips zero A elements beats the dense micro-kernels,
//     because every skipped element removes real multiply-adds while
//     the accumulation order of the surviving terms is unchanged. The
//     skip kernel lists a row's nonzero terms once, then holds each
//     32-column dst chunk in registers across all of them, folding
//     term by term. The path choice depends only on the operand data,
//     never on the worker count or the CPU, so results remain
//     reproducible everywhere. (Skipping an exact-zero term can flip
//     the sign of an exact-zero output or drop a NaN/Inf propagation;
//     training data is finite and sign-of-zero is invisible to ==, so
//     the contract holds wherever it is observed.)
//
// # Zero-allocation dispatch
//
// Parallel dispatch bands over destination rows: each output row is
// written by one band, and banding never changes what a band computes,
// only who computes it. A dispatch allocates nothing in steady state:
// the per-call descriptors (gemmTask) come from a parallel.FreeList and
// carry their body pre-bound at construction, B panels come from a
// second FreeList, and the skip kernels' nonzero lists
// live in a parallel.WorkerLocal arena keyed by the worker ID the pool
// hands each band.
package tensor

import (
	"fmt"

	"nessa/internal/parallel"
)

const (
	// gemmMR is the register micro-tile height: four dst rows.
	gemmMR = 4
	// panelW is the packed panel width: one 8-lane YMM vector per dst
	// row. The 4×16 kernels cover two adjacent panels — eight
	// independent accumulators, enough to hide the add latency.
	panelW = 8
)

// gemmParallelFlops is the approximate multiply-add count below which
// a GEMM runs serially: small products (a few thousand flops) finish
// faster than the goroutine fan-out costs. Above it, the product is
// banded over destination rows on the shared worker pool. Each output
// element accumulates in the same ascending-k order as the serial
// loop, so results are bit-identical for any worker count.
const gemmParallelFlops = 64 * 1024

// ---------------------------------------------------------------------
// Persistent scratch: panel buffers, skip lists, task descriptors
// ---------------------------------------------------------------------

// panels recycles B-panel packing buffers. The list is never drained
// by the garbage collector, so once every holder has grown to the
// largest panel a workload packs, steady-state GEMM calls allocate
// nothing at all.
var panels parallel.FreeList[[]float32]

//nessa:hotpath
func getPanel(n int) *[]float32 {
	s := panels.Get()
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

// skipList is one worker's nonzero list for the skip kernel: val[t]
// is a nonzero A element and off[t] the byte offset of the B row it
// multiplies.
type skipList struct {
	off []int
	val []float32
}

// skipArena holds the per-worker skip lists, so concurrent bands never
// share one and a warm worker never allocates.
var skipArena = parallel.NewWorkerLocal[skipList](nil)

//nessa:hotpath
//nessa:scratch-ok bounded view: the list is consumed inside the caller's band and never outlives the dispatch
func workerSkipList(w, n int) ([]int, []float32) {
	s := skipArena.Get(w)
	if cap(s.off) < n {
		s.off = make([]int, n)
		s.val = make([]float32, n)
	}
	return s.off[:n], s.val[:n]
}

// gemmTask is a recycled dispatch descriptor: the operands of one GEMM
// call plus its body pre-bound to the descriptor at construction, so
// handing the pool a band or pack body never allocates a per-call
// closure.
type gemmTask struct {
	kind   uint8
	trans  bool // a is the transposed operand of MatMulTransAAcc
	acc    bool
	dst    *Matrix
	a      *Matrix
	b      *Matrix
	packed []float32

	run func(w, i, lo, hi int) // bound once to (*gemmTask).band
}

const (
	tkDense uint8 = iota
	tkSkip
	tkPackCol
	tkPackRow
)

var gemmTasks parallel.FreeList[gemmTask]

//nessa:hotpath
func getGemmTask(kind uint8, dst, a, b *Matrix, packed []float32, trans, acc bool) *gemmTask {
	t := gemmTasks.Get()
	if t == nil {
		//nessa:alloc-ok free-list miss: descriptor and its bound closure are built once and recycled forever
		t = &gemmTask{}
		//nessa:alloc-ok method value allocates once per descriptor lifetime and is recycled with it
		t.run = t.band
	}
	t.kind, t.dst, t.a, t.b, t.packed, t.trans, t.acc = kind, dst, a, b, packed, trans, acc
	return t
}

//nessa:hotpath
func putGemmTask(t *gemmTask) {
	t.dst, t.a, t.b, t.packed = nil, nil, nil, nil
	gemmTasks.Put(t)
}

// band runs one item of the descriptor's dispatch: a row band of the
// product for the dense and skip kinds, a panel range for the pack
// kinds. w is the worker ID owning this band's scratch.
//
//nessa:hotpath
func (t *gemmTask) band(w, _, lo, hi int) {
	switch t.kind {
	case tkDense:
		denseBand(t.dst, t.a, t.packed, t.trans, t.acc, lo, hi)
	case tkSkip:
		skipBand(t.dst, t.a, t.b, t.trans, t.acc, w, lo, hi)
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
// multiply-adds saved, and the verdict depends only on the data — not
// on the worker count or the CPU's instruction set — so the same
// inputs take the same path, and give the same bits (signs of zero
// included), on every host.
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
	gemm(dst, a, b, tkPackCol, false, false)
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
	gemm(dst, a, b, tkPackRow, false, false)
}

// MatMulTransAAcc computes dst += aᵀ·b where a is (k×n) and b is
// (k×m); dst must be n×m and must not alias a or b. Backprop uses it to
// add weight gradients (dW += dOutᵀ·X) directly into a freshly zeroed
// gradient tensor with no temporary and no extra pass. Bands cover dst
// rows (columns of a); within a band every element accumulates in
// ascending k, so from a zero dst the result is the serial product bit
// for bit. For nonzero dst the terms still arrive in ascending k; the
// dense path sums them first and adds the sum once, the skip path
// folds them in one by one. Every row of dst takes the same path
// whatever band it lands in, and the path choice depends only on
// operand data, so the output is deterministic and worker-count
// invariant either way.
//
//nessa:hotpath
func MatMulTransAAcc(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransAAcc shape mismatch: (%dx%d)ᵀ·(%dx%d) -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	gemm(dst, a, b, tkPackCol, true, true)
}

// gemm dispatches one shape-checked product. pack names how b is read:
// tkPackCol packs b's columns (MatMul, MatMulTransAAcc), tkPackRow its
// rows (MatMulTransB). A product of the first kind whose a is sparse
// runs the skip bands, which read b's rows in place; every other one
// packs the B panels and runs the dense bands.
//
//nessa:hotpath
func gemm(dst, a, b *Matrix, pack uint8, trans, acc bool) {
	n, m := dst.Rows, dst.Cols
	k := b.Rows
	if pack == tkPackRow {
		k = b.Cols
	}
	if n == 0 || m == 0 {
		return
	}
	kind := tkDense
	var packed []float32
	var buf *[]float32
	switch {
	case pack == tkPackCol && k > 0 && gemmSparseA(a):
		kind = tkSkip
	case k > 0:
		np := (m + panelW - 1) / panelW
		buf = getPanel(np * panelW * k)
		packed = *buf
		packPanels(packed, b, pack, np)
	}
	t := getGemmTask(kind, dst, a, b, packed, trans, acc)
	parallel.Default().For(n, gemmGrain(n, k, m), t.run)
	putGemmTask(t)
	if buf != nil {
		panels.Put(buf)
	}
}

// packPanels packs b into np 8-wide k-interleaved panels:
// out[(jp·k + kk)·8 + c] is element (kk, jp·8+c) of b (tkPackCol) or
// of bᵀ (tkPackRow). Lanes past the last real column are padding no
// result reads. Panels are disjoint, so packing parallelizes trivially
// for large operands.
//
//nessa:hotpath
func packPanels(out []float32, b *Matrix, pack uint8, np int) {
	if len(out) >= gemmParallelFlops && parallel.Default().Workers() > 1 {
		t := getGemmTask(pack, nil, nil, b, out, false, false)
		parallel.Default().For(np, 1, t.run)
		putGemmTask(t)
		return
	}
	if pack == tkPackRow {
		packRowRange(out, b, 0, np)
	} else {
		packColRange(out, b, 0, np)
	}
}

// packColRange packs panels [lo,hi) of b's columns, zero-padding the
// last one.
//
//nessa:hotpath
func packColRange(out []float32, b *Matrix, lo, hi int) {
	k := b.Rows
	for jp := lo; jp < hi; jp++ {
		j0 := jp * panelW
		o := jp * k * panelW
		for kk := 0; kk < k; kk++ {
			d := out[o:][:panelW]
			clear(d[copy(d, b.Row(kk)[j0:]):])
			o += panelW
		}
	}
}

// packRowRange packs panels [lo,hi) of b's rows (the columns of bᵀ).
// The padding lanes of a short last panel repeat its last real row.
//
//nessa:hotpath
func packRowRange(out []float32, b *Matrix, lo, hi int) {
	k, last := b.Cols, b.Rows-1
	for jp := lo; jp < hi; jp++ {
		j0 := jp * panelW
		// Named rows re-sliced to [:k] (the kk loop bound) and a
		// constant-length destination window keep the inner loop free
		// of per-element bounds checks.
		r0, r1, r2, r3 := b.Row(j0)[:k], b.Row(min(j0+1, last))[:k], b.Row(min(j0+2, last))[:k], b.Row(min(j0+3, last))[:k]
		r4, r5, r6, r7 := b.Row(min(j0+4, last))[:k], b.Row(min(j0+5, last))[:k], b.Row(min(j0+6, last))[:k], b.Row(min(j0+7, last))[:k]
		o := jp * k * panelW
		for kk := 0; kk < k; kk++ {
			d := out[o:][:panelW]
			d[0] = r0[kk]
			d[1] = r1[kk]
			d[2] = r2[kk]
			d[3] = r3[kk]
			d[4] = r4[kk]
			d[5] = r5[kk]
			d[6] = r6[kk]
			d[7] = r7[kk]
			o += panelW
		}
	}
}

// zeroRows clears dst rows [lo,hi).
//
//nessa:hotpath
//nessa:inline
func zeroRows(dst *Matrix, lo, hi int) {
	clear(dst.Data[lo*dst.Cols : hi*dst.Cols])
}

// denseBand computes dst rows [lo,hi) of a·b (or aᵀ·b when trans) from
// the packed B panels; dst += the product when acc, else dst = it.
// Row i's A values are a.Data[i·rs + kk·ks]: natural rows for MatMul
// and MatMulTransB, the columns of a for MatMulTransAAcc. Every row runs
// the same chain whether it lands in a 4-row tile or in the band's row
// tail, and band boundaries move with the worker count — so the output
// cannot depend on it.
//
//nessa:hotpath
func denseBand(dst, a *Matrix, packed []float32, trans, acc bool, lo, hi int) {
	k, rs, ks := a.Cols, a.Cols, 1
	if trans {
		k, rs, ks = a.Rows, 1, a.Cols
	}
	m := dst.Cols
	if !acc {
		zeroRows(dst, lo, hi)
	}
	if k == 0 {
		return
	}
	full := m / panelW
	for jp := 0; jp < full; jp += 2 {
		j0 := jp * panelW
		two := jp+1 < full
		p0 := packed[jp*k*panelW : (jp+1)*k*panelW]
		p1 := p0
		if two {
			p1 = packed[(jp+1)*k*panelW : (jp+2)*k*panelW]
		}
		i := lo
		for ; i+gemmMR <= hi; i += gemmMR {
			d, av := dst.Data[i*m+j0:], a.Data[i*rs:]
			if two {
				micro4x16(d, m, av, rs, ks, p0, p1)
			} else {
				micro4x8(d, m, av, rs, ks, p0)
			}
		}
		for ; i < hi; i++ {
			d, av := dst.Data[i*m+j0:], a.Data[i*rs:]
			micro1x8(d, av, ks, p0)
			if two {
				micro1x8(d[panelW:], av, ks, p1)
			}
		}
	}
	if jt := full * panelW; jt < m {
		tailPanel(dst, a.Data, rs, ks, packed[full*k*panelW:(full+1)*k*panelW], jt, lo, hi)
	}
}

// tailPanel computes dst columns [jt, m) — fewer than 8 — of rows
// [lo,hi) from the padded last panel pt, through an 8-wide scratch
// tile: the kernel runs on the tile and only the real columns are
// copied back, so a column tail runs the same chain as every other
// column.
//
//nessa:hotpath
func tailPanel(dst *Matrix, a []float32, rs, ks int, pt []float32, jt, lo, hi int) {
	m := dst.Cols
	var tile [gemmMR * panelW]float32
	i := lo
	for ; i+gemmMR <= hi; i += gemmMR {
		for r := 0; r < gemmMR; r++ {
			copy(tile[r*panelW:(r+1)*panelW], dst.Data[(i+r)*m+jt:(i+r+1)*m])
		}
		micro4x8(tile[:], panelW, a[i*rs:], rs, ks, pt)
		for r := 0; r < gemmMR; r++ {
			copy(dst.Data[(i+r)*m+jt:(i+r+1)*m], tile[r*panelW:(r+1)*panelW])
		}
	}
	for ; i < hi; i++ {
		copy(tile[:panelW], dst.Data[i*m+jt:(i+1)*m])
		micro1x8(tile[:panelW], a[i*rs:], ks, pt)
		copy(dst.Data[i*m+jt:(i+1)*m], tile[:panelW])
	}
}

// skipBand computes dst rows [lo,hi) of a·b (or aᵀ·b when trans) for a
// sparse A operand, skipping zero A elements; dst += the product when
// acc. Every dst element accumulates its surviving terms in ascending
// k — the identical term order as the dense path, minus the zero
// products.
//
//nessa:hotpath
func skipBand(dst, a, b *Matrix, trans, acc bool, w, lo, hi int) {
	ld, stride := a.Cols, 1
	if trans {
		ld, stride = 1, a.Cols
	}
	off, val := workerSkipList(w, b.Rows)
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		if !acc {
			clear(drow)
		}
		skipRow(drow, a.Data[i*ld:], stride, b, off, val)
	}
}
