// Fixture for the hotpath analyzer: allocating and formatting
// constructs inside //nessa:hotpath functions are violations unless
// they sit in a panic argument, under an amortized growth guard, or on
// a //nessa:alloc-ok line.
package fixture

import (
	"fmt"
	"sync"
)

// Kernel is annotated hot: every construct below must be flagged.
//
//nessa:hotpath
func Kernel(dst, a []float32) []float32 {
	buf := make([]float32, len(a)) // want "make in"
	copy(buf, a)
	dst = append(dst, buf...) // want "append"
	pair := []int{1, 2}       // want "composite literal"
	_ = pair
	f := func() {} // want "closure"
	f()
	fmt.Println("hot") // want "call to fmt.Println"
	return dst
}

// Label concatenates strings on the hot path.
//
//nessa:hotpath
func Label(a, b string) string {
	return a + b // want "string concatenation"
}

// Warm demonstrates every sanctioned escape: growth guard, panic
// argument, and the alloc-ok annotation. No findings.
//
//nessa:hotpath
func Warm(buf []float32, n int) []float32 {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n))
	}
	if cap(buf) < n {
		buf = make([]float32, n)
	}
	//nessa:alloc-ok demonstrates the site-level opt-out
	extra := make([]int, 1)
	_ = extra
	return buf[:n]
}

// Cold carries no annotation: identical constructs, no findings.
func Cold(n int) []float32 {
	fmt.Println("cold")
	return make([]float32, n)
}

var scratchPool = sync.Pool{New: func() any { b := make([]float32, 64); return &b }}

// Pooled reaches for sync.Pool on the hot path: the GC drains the pool
// between epochs, so the steady state keeps allocating.
//
//nessa:hotpath
func Pooled(x float32) float32 {
	buf := scratchPool.Get().(*[]float32) // want "sync.Pool.Get"
	(*buf)[0] = x
	v := (*buf)[0]
	scratchPool.Put(buf) // want "sync.Pool.Put"
	return v
}

// PooledWaived documents an intended sync.Pool use.
//
//nessa:hotpath
func PooledWaived(x float32) float32 {
	//nessa:alloc-ok demonstrates the site-level opt-out for pools
	buf := scratchPool.Get().(*[]float32)
	(*buf)[0] = x
	v := (*buf)[0]
	//nessa:alloc-ok demonstrates the site-level opt-out for pools
	scratchPool.Put(buf)
	return v
}

// ColdPool carries no annotation: no findings.
func ColdPool() *[]float32 {
	return scratchPool.Get().(*[]float32)
}

// SketchUpdate is a per-record kernel in the shape of a row sketch:
// append a row into a preallocated buffer by cursor, and hand off to
// an unannotated helper when the buffer fills. No findings — the work
// inside the helper is amortized over a buffer of records and not on
// the per-record path.
//
//nessa:hotpath
func SketchUpdate(buf []float32, rows *int, row []float32) {
	copy(buf[*rows*len(row):(*rows+1)*len(row)], row)
	*rows++
	if *rows == cap(buf)/len(row) {
		shrinkHelper(buf, rows)
	}
}

// shrinkHelper is the amortized slow path: unannotated, so its
// allocations are out of the hot-path contract's scope.
func shrinkHelper(buf []float32, rows *int) {
	tmp := make([]float64, len(buf))
	_ = tmp
	*rows /= 2
}

// SievePushAlloc stages each record's candidate through fresh memory —
// one allocation and one growth per record, both violations of the
// zero-alloc streaming contract.
//
//nessa:hotpath
func SievePushAlloc(dst [][]float32, row []float32) [][]float32 {
	tmp := make([]float32, len(row)) // want "make in"
	copy(tmp, row)
	return append(dst, tmp) // want "append"
}

// SievePush is the sanctioned shape (streaming.classSieve.push): level
// buffers are preallocated at plan time, so the per-record write is a
// copy into owned memory behind an amortized growth guard.
//
//nessa:hotpath
func SievePush(ids []int, emb []float32, id int, row []float32, count *int) []int {
	if cap(ids) < *count+1 {
		ids = make([]int, *count+1, 2*(*count+1))
	}
	ids = ids[:*count+1]
	ids[*count] = id
	copy(emb[*count*len(row):], row)
	*count++
	return ids
}
