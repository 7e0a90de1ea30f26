// Fixture for the scratchlife analyzer: arena-backed and worker-local
// scratch escaping its epoch through returns, stores and channel sends
// — next to the documented bounded-view and copy-out idioms that must
// stay silent.
package fixture

// scratch is an epoch-scoped arena: its memory is overwritten by the
// next pass.
//
//nessa:arena valid for one pass, overwritten by the next
type scratch struct {
	buf []float32
}

// cache is a long-lived structure unrelated to any arena.
type cache struct {
	rows map[int][]float32
	last []float32
}

// StashInField parks arena memory in a long-lived struct.
func StashInField(c *cache, s *scratch) {
	c.last = s.buf // want "scratch memory stored in field last of a non-scratch value outlives its epoch"
}

var lastScratch []float32

// StashGlobal parks arena memory in a package-level variable.
func StashGlobal(s *scratch) {
	lastScratch = s.buf // want "scratch memory stored in package-level variable lastScratch outlives its epoch"
}

var rowCache = map[int][]float32{}

// StashContainer parks arena memory in a package-level container.
func StashContainer(s *scratch, k int) {
	rowCache[k] = s.buf // want "scratch memory stored in package-level container outlives its epoch"
}

// Publish sends arena memory to another goroutine.
func Publish(ch chan []float32, s *scratch) {
	buf := s.buf
	ch <- buf // want "scratch memory escapes through a channel send"
}

// View is the documented bounded-view idiom: the doc-level waiver
// covers every return in the function.
//
//nessa:scratch-ok callers consume the view before the next pass overwrites it
func (s *scratch) View(lo, hi int) []float32 {
	return s.buf[lo:hi]
}

// CopyOut materializes arena contents into caller-owned memory —
// fresh allocation, no taint.
func CopyOut(s *scratch) []float32 {
	out := make([]float32, len(s.buf))
	copy(out, s.buf)
	return out
}

// WorkerLocal mirrors parallel.WorkerLocal: per-worker slots reused by
// the next loop on the same worker. Get is a taint source by receiver
// type name, so the fixture needs no import.
type WorkerLocal[T any] struct{ slots []*T }

func (l *WorkerLocal[T]) Get(w int) *T { return l.slots[w] }

var evalArena = &WorkerLocal[scratch]{}

// LeakWorkerSlot hands a worker's arena slot to the caller: the next
// chunk scheduled on worker w overwrites it.
func LeakWorkerSlot(w int) []float32 {
	sc := evalArena.Get(w)
	return sc.buf // want "returns pool/arena-backed scratch memory"
}

var lastSlot *scratch

// StashWorkerSlot parks a worker slot in a package-level variable.
func StashWorkerSlot(w int) {
	lastSlot = evalArena.Get(w) // want "scratch memory stored in package-level variable lastSlot outlives its epoch"
}

// SlotScalarOut copies a scalar out of a worker slot — never tainted.
func SlotScalarOut(w int) float32 {
	sc := evalArena.Get(w)
	return sc.buf[0]
}

// SlotGrow grows a slot's buffer in place: a store into a base that is
// itself scratch stays silent (arena-to-arena).
func SlotGrow(w int, n int) {
	sc := evalArena.Get(w)
	if cap(sc.buf) < n {
		sc.buf = make([]float32, n)
	}
}

// sketchState is a row sketch's persistent buffer set: arena-owned for
// the whole pass, every row overwritten as the stream advances past
// the next shrink.
//
//nessa:arena sketch rows are rewritten in place by the next shrink
type sketchState struct {
	rows []float32
}

// LeakSketchRows hands the live sketch buffer to the caller with no
// contract; the next Update rewrites it under the caller's feet.
func LeakSketchRows(s *sketchState) []float32 {
	return s.rows // want "returns pool/arena-backed scratch memory"
}

// SketchRowsView is the documented read-only view idiom: a view whose
// contract is stated at the accessor.
//
//nessa:scratch-ok callers copy the rows out before pushing more records
func SketchRowsView(s *sketchState) []float32 {
	return s.rows
}

var lastRows []float32

// StashSketchRows parks the sketch buffer in a package-level variable
// across batches.
func StashSketchRows(s *sketchState) {
	lastRows = s.rows // want "scratch memory stored in package-level variable lastRows outlives its epoch"
}

// SketchEnergy folds the buffer to a scalar — never tainted.
func SketchEnergy(s *sketchState) float32 {
	var e float32
	for _, v := range s.rows {
		e += v * v
	}
	return e
}
