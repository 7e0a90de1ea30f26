package parallel

import "sync"

// FreeList is a LIFO free list of *T values, safe for concurrent use.
// Unlike a sync.Pool it is never drained by the garbage collector, so
// once a workload has reached its peak number of concurrent holders
// every Get hits, and a recycled value keeps the buffers it grew: the
// steady state allocates nothing. LIFO order hands out the value
// released last, whose memory is the warmest. The zero value is an
// empty list.
type FreeList[T any] struct {
	mu   sync.Mutex
	list []*T
}

// Get pops the value Put most recently, or returns nil when the list is
// empty; the caller then builds a fresh one.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	var v *T
	if n := len(l.list); n > 0 {
		v = l.list[n-1]
		l.list = l.list[:n-1]
	}
	l.mu.Unlock()
	return v
}

// Put returns v to the list. The list grows to the peak number of
// values out at once and never past it.
func (l *FreeList[T]) Put(v *T) {
	l.mu.Lock()
	l.list = append(l.list, v)
	l.mu.Unlock()
}
