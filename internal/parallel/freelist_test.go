package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFreeListIsLIFO(t *testing.T) {
	var l FreeList[int]
	if l.Get() != nil {
		t.Fatal("empty list returned a value")
	}
	a, b, c := new(int), new(int), new(int)
	l.Put(a)
	l.Put(b)
	l.Put(c)
	for i, want := range []*int{c, b, a, nil} {
		if got := l.Get(); got != want {
			t.Fatalf("Get %d returned %p, want %p", i, got, want)
		}
	}
}

func TestFreeListWarmGetPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var l FreeList[[64]float32]
	l.Put(new([64]float32))
	if avg := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); avg > 0 {
		t.Fatalf("warm Get/Put allocates %.2f times per pair, want 0", avg)
	}
}

// TestFreeListConcurrentHoldersAreExclusive runs Get/Put from many
// goroutines (meaningful under -race): a value is out with at most one
// holder at a time, so a holder's claim on it never finds it claimed.
func TestFreeListConcurrentHoldersAreExclusive(t *testing.T) {
	var l FreeList[atomic.Int32]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := l.Get()
				if v == nil {
					v = new(atomic.Int32)
				}
				if !v.CompareAndSwap(0, 1) {
					t.Error("a value was handed to two holders at once")
					return
				}
				runtime.Gosched() // widen the window a second holder would hit
				v.Store(0)
				l.Put(v)
			}
		}()
	}
	wg.Wait()
}
