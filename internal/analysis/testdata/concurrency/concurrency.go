// Fixture for the concurrency analyzer: shared writes from pool tasks,
// WaitGroup.Add placement, and unlock-without-lock paths — plus the
// sanctioned idioms each rule must leave alone.
package fixture

import (
	"sync"

	"nessa/internal/parallel"
)

// SharedSum accumulates into a captured scalar from concurrent chunks.
func SharedSum(xs []float64) float64 {
	pool := parallel.Default()
	sum := 0.0
	pool.ForChunks(len(xs), func(_, c, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want "write to captured variable sum inside concurrently executed closure may race"
		}
	})
	return sum
}

// SlotSum is the sanctioned reduction: each chunk writes its own
// disjoint slot, merged after the barrier.
func SlotSum(xs []float64) float64 {
	pool := parallel.Default()
	partial := make([]float64, parallel.Chunks(len(xs)))
	pool.ForChunks(len(xs), func(_, c, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		partial[c] = s
	})
	total := 0.0
	for _, p := range partial {
		total += p
	}
	return total
}

// WaivedWrite documents a single-writer invariant with the sync-ok
// escape hatch: the only write happens before done is signalled.
func WaivedWrite(done func()) int {
	total := 0
	go func() {
		//nessa:sync-ok single writer; the reader joins via done before reading
		total = 1
		done()
	}()
	return total
}

// AddInside calls WaitGroup.Add from within the goroutine it tracks —
// Wait can run before Add does.
func AddInside(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		go func() {
			wg.Add(1) // want "sync.WaitGroup.Add inside the spawned closure races with Wait"
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// UnlockMaybe unlocks on a path where the lock was never taken.
func UnlockMaybe(mu *sync.Mutex, cond bool) {
	if cond {
		mu.Lock()
	}
	mu.Unlock() // want "mu.Unlock may run without a preceding Lock on some path"
}

// LockDefer is the sanctioned shape: the deferred unlock always runs
// with the lock held.
func LockDefer(mu *sync.Mutex) int {
	mu.Lock()
	defer mu.Unlock()
	return 1
}

// RWDiscipline keeps read and write locks in separate key spaces: the
// RUnlock pairs with the RLock even with a write Lock in between.
func RWDiscipline(mu *sync.RWMutex) {
	mu.RLock()
	mu.RUnlock()
	mu.Lock()
	mu.Unlock()
}
