// Fixture for the concurrency analyzer: WaitGroup.Add placement and
// unlock-without-lock paths — plus the sanctioned idioms each rule must
// leave alone.
package fixture

import (
	"sync"

	"nessa/internal/parallel"
)

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

// PoolAdd calls Add inside a pool body. The pool joins every body
// before ForChunks returns, so the Add cannot overtake the Wait after
// the loop: not a spawn, not flagged.
func PoolAdd(xs []float64) {
	var wg sync.WaitGroup
	parallel.Default().ForChunks(len(xs), func(_, _, lo, hi int) {
		wg.Add(hi - lo)
	})
	for range xs {
		wg.Done()
	}
	wg.Wait()
}

// WaivedAdd documents a counted handshake with the sync-ok escape
// hatch: the caller's Wait starts only after ready is closed, and the
// goroutine closes it after its Add.
func WaivedAdd(wg *sync.WaitGroup, ready chan struct{}) {
	go func() {
		//nessa:sync-ok the caller waits on ready before calling wg.Wait
		wg.Add(1)
		close(ready)
		wg.Done()
	}()
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
