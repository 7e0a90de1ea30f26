package parallel

import (
	"sync"
	"sync/atomic"
)

// WorkerLocal is a table of lazily created per-worker state slots,
// keyed by the worker IDs the loops (ForChunks, For) hand their
// bodies. Because a worker ID is never shared by two concurrent
// loop participants, Get(w) returns memory the calling participant
// owns exclusively for the duration of the loop — per-worker scratch
// without locks — and because IDs are recycled LIFO across loops, the
// same few slots are reused run after run, so steady-state loops
// allocate nothing.
//
// The slot table grows copy-on-write under a mutex and is published
// through an atomic pointer, so the hot Get path is one atomic load
// and two bounds checks. Values must not be retained past the loop
// body that fetched them: the next loop may hand the same ID — and
// therefore the same slot — to a different goroutine. The scratchlife
// analyzer enforces this ownership contract the same way it does for
// //nessa:arena fields: a WorkerLocal-backed value that escapes its
// epoch (returned, stored, or sent) is flagged.
type WorkerLocal[T any] struct {
	newFn func() *T
	mu    sync.Mutex
	slots atomic.Pointer[[]*T]
}

// NewWorkerLocal returns a WorkerLocal whose slots are created on
// first use by newFn; a nil newFn means new(T).
func NewWorkerLocal[T any](newFn func() *T) *WorkerLocal[T] {
	return &WorkerLocal[T]{newFn: newFn}
}

// Get returns worker w's slot, creating it on first use. The fast path
// never allocates and never locks.
//
//nessa:hotpath
func (l *WorkerLocal[T]) Get(w int) *T {
	if p := l.slots.Load(); p != nil && w >= 0 && w < len(*p) {
		if v := (*p)[w]; v != nil {
			return v
		}
	}
	return l.getSlow(w)
}

func (l *WorkerLocal[T]) getSlow(w int) *T {
	if w < 0 {
		panic("parallel: WorkerLocal.Get called with a negative worker ID")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var cur []*T
	if p := l.slots.Load(); p != nil {
		cur = *p
	}
	if w < len(cur) && cur[w] != nil {
		return cur[w]
	}
	size := len(cur)
	if size <= w {
		size = w + 1
	}
	// Copy-on-write: concurrent Gets keep reading the old table while
	// the grown one is built, then the atomic store publishes it.
	grown := make([]*T, size)
	copy(grown, cur)
	var v *T
	if l.newFn != nil {
		v = l.newFn()
	} else {
		v = new(T)
	}
	grown[w] = v
	l.slots.Store(&grown)
	return v
}
